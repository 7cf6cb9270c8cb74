"""Presentations, sunflower search, canonical enumeration, witness
verification and the colouring encoding."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunlab import catalog
from sunlab.generators import gen_named
from sunlab.ksets import (
    Presentation,
    SunflowerCert,
    _normal_form_candidates,
    _members,
    _refine_cells,
    _sample_sets,
    canonical_families,
    canonical_sets,
    encode_colouring,
    enumerate_presentations,
    find_sunflower_copies,
    random_presentation,
    refute_witness,
    sunflower_centre,
    verify_sunflower_cert,
    verify_witness,
)
from sunlab.partitionlab import Colouring, colour_copy_search
from sunlab.structures import (
    BudgetExceeded,
    Embedding,
    Structure,
    _iter_embedding_maps,
    embedding_defect,
)
from test_golden import run_on_clock


def fs(*xs):
    return frozenset(xs)


# ---------------------------------------------------------------------------
# Centres


def test_sunflower_centre_examples():
    assert sunflower_centre([fs(1, 2), fs(1, 3), fs(1, 4)]) == fs(1)
    assert sunflower_centre([fs(1, 2), fs(3, 4)]) == fs()
    assert sunflower_centre([fs(1, 2), fs(2, 3), fs(1, 3)]) is None


def test_sunflower_centre_degenerate_conventions():
    assert sunflower_centre([]) == fs()
    assert sunflower_centre([fs(4, 7)]) == fs(4, 7)


def test_sunflower_centre_two_sets_always_have_one():
    rng = random.Random(0)
    for _ in range(50):
        a = frozenset(rng.sample(range(8), 3))
        b = frozenset(rng.sample(range(8), 3))
        if a == b:
            continue
        assert sunflower_centre([a, b]) == a & b


def test_sunflower_centre_rejects_duplicates():
    with pytest.raises(ValueError):
        sunflower_centre([fs(1, 2), fs(1, 2)])


# ---------------------------------------------------------------------------
# Presentations and copy search


def test_presentation_validation():
    base = catalog.pure_set(2)
    with pytest.raises(ValueError):
        Presentation(base, 2, [(0, 1)])
    with pytest.raises(ValueError):
        Presentation(base, 2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        Presentation(base, 2, [(0, 1), (2,)])


def test_find_sunflower_copies_examples():
    pure3 = catalog.pure_set(3)
    P = Presentation(pure3, 2, [(1, 2), (1, 3), (1, 4)])
    certs = find_sunflower_copies(P, pure3)
    assert len(certs) == 1 and certs[0].centre == fs(1)

    k2 = catalog.complete_graph(2)
    Pk = Presentation(k2, 2, [(0, 1), (2, 3)])
    certs = find_sunflower_copies(Pk, k2)
    assert len(certs) == 1 and certs[0].centre == fs()

    Pt = Presentation(pure3, 2, [(1, 2), (2, 3), (1, 3)])
    assert find_sunflower_copies(Pt, pure3) == []
    pairs = find_sunflower_copies(Pt, catalog.pure_set(2))
    assert len(pairs) == 3  # any two distinct sets form a sunflower


@st.composite
def presented_graphs(draw):
    """A presentation of a graph on at most six vertices on distinct k-sets
    of a ground set of 2k naturals or more, and a graph target of at most
    three vertices."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    pairs = list(itertools.combinations(range(n), 2))
    C = catalog.graph(n, draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    ground = range(max(k * n, 2 * k))
    sets = draw(st.lists(st.frozensets(st.sampled_from(ground), min_size=k, max_size=k),
                         min_size=n, max_size=n, unique=True))
    b = draw(st.integers(0, 3))
    B_pairs = list(itertools.combinations(range(b), 2))
    B = catalog.graph(b, draw(st.sets(st.sampled_from(B_pairs))) if B_pairs else ())
    return Presentation(C, k, sets), B


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presented_graphs())
def test_find_sunflower_copies_matches_subset_scan(case):
    # every vertex subset whose sets form a sunflower and that carries an
    # induced copy of B, against the images of the certificates
    P, B = case
    scan = {frozenset(S) for S in itertools.combinations(range(P.base.size), B.size)
            if sunflower_centre(P.sets[v] for v in S) is not None
            and any(embedding_defect(B, P.base, f) is None
                    for f in itertools.permutations(S))}
    certs = find_sunflower_copies(P, B)
    assert {frozenset(c.petals) for c in certs} == scan
    assert len(certs) == len(scan)
    assert all(verify_sunflower_cert(c, B, P) for c in certs)


@pytest.mark.parametrize("limit", [0, -1])
def test_find_sunflower_copies_rejects_limit_below_one(limit):
    # both used to return one certificate
    P = Presentation(catalog.pure_set(3), 2, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(ValueError, match="limit must be >= 1"):
        find_sunflower_copies(P, catalog.pure_set(2), limit=limit)


def test_certs_revalidate():
    rng = random.Random(1)
    pure3 = catalog.pure_set(3)
    for _ in range(30):
        C = catalog.pure_set(6)
        P = random_presentation(C, 2, rng)
        for cert in find_sunflower_copies(P, pure3):
            assert verify_sunflower_cert(cert, pure3, P)


def sampled_presentation(C, k, rng):
    """Oracle for `random_presentation`: each k-set from `rng.sample`."""
    ground = max(k * C.size, k)
    chosen = []
    while len(chosen) < C.size:
        s = frozenset(rng.sample(range(ground), k))
        if s not in chosen:
            chosen.append(s)
    return chosen


# ground 21 is the last that sample draws from a pool when k <= 5, and
# 22 the first it draws by rejection; k > 5 widens the pool threshold
# (to 85 for k = 6..21), crossed here by k = 6 at sizes 14 and 15
@pytest.mark.parametrize("size, k", [
    (0, 1), (1, 1), (21, 1), (22, 1), (7, 3), (10, 2), (11, 2), (5, 4), (6, 4),
    (96, 2), (3, 6), (14, 6), (15, 6), (4, 8), (12, 9), (2, 12), (9, 12)])
def test_random_presentation_draws_what_sample_draws(size, k):
    C = catalog.pure_set(size)
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert random_presentation(C, k, ours).sets == tuple(sampled_presentation(C, k, theirs))
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("size, k", [(10, 2), (11, 2), (7, 3), (14, 6), (15, 6)])
def test_one_sampler_draws_what_successive_random_presentations_draw(size, k):
    # ground 20 and 21 take sample's pool, 22 its rejection branch; k = 6
    # crosses the wider pool threshold between sizes 14 and 15
    C = catalog.pure_set(size)
    ours, theirs = random.Random(size * k), random.Random(size * k)
    samples = _sample_sets(size, k, ours)
    for _ in range(30):
        decoded = tuple(frozenset(_members(m)) for m in next(samples))
        assert decoded == random_presentation(C, k, theirs).sets
        assert ours.getstate() == theirs.getstate()


def test_cert_tampering_detected():
    pure3 = catalog.pure_set(3)
    P = Presentation(pure3, 2, [(1, 2), (1, 3), (1, 4)])
    cert = find_sunflower_copies(P, pure3)[0]
    from sunlab.ksets import SunflowerCert
    bigger = SunflowerCert(cert.petals, cert.centre | {9}, cert.iso)
    assert not verify_sunflower_cert(bigger, pure3, P)
    k2 = catalog.complete_graph(2)
    assert not verify_sunflower_cert(cert, k2, P)


@pytest.mark.parametrize("petals, centre, iso_map, target", [
    ((0, 0, 1), (1,), (0, 0, 1), None),
    ((0, 1, 7), (1,), (0, 1, 7), None),
    ((0, 1, 2), (1,), (1, 0, 2), None),
    ((0, 1, 2), (1,), (0, 1, 2), catalog.pure_set(4))],
    ids=["repeated-petal", "petal-out-of-range", "iso-differs-from-petals",
         "iso-target-not-the-base"])
def test_cert_check_rejects_each_defect(petals, centre, iso_map, target):
    pure3 = catalog.pure_set(3)
    P = Presentation(pure3, 2, [(1, 2), (1, 3), (1, 4)])
    good = SunflowerCert((0, 1, 2), (1,), Embedding(pure3, P.base, (0, 1, 2)))
    assert verify_sunflower_cert(good, pure3, P)
    iso = Embedding(pure3, target or P.base, iso_map)
    assert not verify_sunflower_cert(SunflowerCert(petals, centre, iso), pure3, P)


# ---------------------------------------------------------------------------
# Canonical enumeration


def signature_key(sets):
    """Oracle invariant: presentations are ground-bijection equivalent iff
    the per-vertex membership signatures of ground elements agree as a
    multiset."""
    members = {}
    for i, s in enumerate(sets):
        for g in s:
            members.setdefault(g, []).append(i)
    return tuple(sorted(Counter(tuple(v) for v in members.values()).items()))


def test_enumeration_counts():
    assert len(list(enumerate_presentations(catalog.pure_set(2), 1))) == 1
    two = list(enumerate_presentations(catalog.pure_set(2), 2))
    assert [[tuple(sorted(s)) for s in P.sets] for P in two] == \
        [[(0, 1), (0, 2)], [(0, 1), (2, 3)]]
    assert len(list(enumerate_presentations(catalog.pure_set(3), 1))) == 1


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_presentations(catalog.pure_set(40), 2))


def test_enumeration_no_duplicates_and_complete():
    rng = random.Random(7)
    for size, k in [(2, 2), (3, 2), (4, 2), (4, 1), (3, 3)]:
        C = catalog.pure_set(size)
        reps = list(enumerate_presentations(C, k))
        keys = [signature_key(P.sets) for P in reps]
        assert len(set(keys)) == len(keys), "duplicate orbit emitted"
        # every random presentation's orbit is covered, and its canonical
        # form equals the emitted representative
        by_key = {key: P for key, P in zip(keys, reps)}
        for _ in range(40):
            Q = random_presentation(C, k, rng)
            key = signature_key(Q.sets)
            assert key in by_key
            assert canonical_sets(Q.sets) == tuple(
                tuple(sorted(s)) for s in by_key[key].sets)


def least_relabelling(sets):
    """Oracle for `canonical_sets`: walk every first-appearance relabelling
    (each set's new elements in every order) and keep the least, descending
    only while the relabelled prefix is no larger than the best so far."""
    family = [frozenset(s) for s in sets]
    best = None
    acc = []
    assign = {}

    def rec(i, next_label):
        nonlocal best
        if i == len(family):
            if best is None or tuple(acc) < best:
                best = tuple(acc)
            return
        known = sorted(assign[g] for g in family[i] if g in assign)
        unknown = sorted(g for g in family[i] if g not in assign)
        t = len(unknown)
        acc.append(tuple(known) + tuple(range(next_label, next_label + t)))
        if best is None or tuple(acc) <= best[:i + 1]:
            for perm in itertools.permutations(unknown):
                for off, g in enumerate(perm):
                    assign[g] = next_label + off
                rec(i + 1, next_label + t)
            for g in unknown:
                del assign[g]
        acc.pop()

    rec(0, 0)
    return best


def test_canonical_sets_invariant_under_relabelling():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 5)
        sets = []
        seen = set()
        while len(sets) < n:
            s = frozenset(rng.sample(range(8), 2))
            if s not in seen:
                seen.add(s)
                sets.append(s)
        perm = list(range(8))
        rng.shuffle(perm)
        relabeled = [frozenset(perm[x] for x in s) for s in sets]
        assert least_relabelling(sets) == least_relabelling(relabeled) == \
            canonical_sets(relabeled)


def _enumerate_by_leaf_filter(C, k):
    """Reference enumerator: every normal-form family, filtered at the leaf
    by the tie-walk oracle."""
    sets = []

    def rec(i, next_label):
        if i == C.size:
            if tuple(sets) == least_relabelling(sets):
                yield tuple(sets)
            return
        for cand in _normal_form_candidates(sets, k, next_label):
            sets.append(cand)
            yield from rec(i + 1, max(next_label, max(cand) + 1))
            sets.pop()

    return list(rec(0, 0))


@pytest.mark.parametrize("size,k", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2),
                                    (3, 3), (4, 3), (3, 4), (2, 5)])
def test_orderly_enumeration_matches_leaf_filter(size, k):
    C = catalog.pure_set(size)
    stream = [tuple(tuple(sorted(s)) for s in P.sets)
              for P in enumerate_presentations(C, k)]
    assert stream == _enumerate_by_leaf_filter(C, k)


@pytest.mark.parametrize("size,k", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2),
                                    (3, 3), (4, 3), (3, 4), (2, 5)])
def test_canonical_families_are_the_sorted_sets_of_the_enumeration(size, k):
    C = catalog.pure_set(size)
    families = list(canonical_families(C, k))
    assert families == [P._sorted for P in enumerate_presentations(C, k)]
    assert families == [tuple(tuple(sorted(s)) for s in P.sets)
                        for P in enumerate_presentations(C, k)]


@st.composite
def normal_form_families(draw):
    """A family built like the enumerator builds one: each set is a
    normal-form candidate after the sets before it."""
    k = draw(st.integers(1, 3))
    size = draw(st.integers(0, 5))
    sets = []
    next_label = 0
    for _ in range(size):
        cand = draw(st.sampled_from(_normal_form_candidates(sets, k, next_label)))
        sets.append(cand)
        next_label = max(next_label, max(cand) + 1)
    return sets


@given(normal_form_families())
def test_early_exit_canonicity_matches_full_minimum(sets):
    """Refine the cells set by set: each prefix is canonical iff the tie
    walk finds no smaller relabelling, and then its cells are the runs of
    labels with equal membership words."""
    cells = frozenset([0])
    for i in range(1, len(sets) + 1):
        prefix = sets[:i]
        canonical = tuple(prefix) == least_relabelling(prefix)
        if cells is None:  # no extension of a non-canonical prefix is canonical
            assert not canonical
            continue
        cells = _refine_cells(cells, prefix[-1])
        assert (cells is not None) == canonical
        if canonical:
            labels = range(max(map(max, prefix)) + 1)
            words = [tuple(g in s for s in prefix) for g in labels]
            assert cells == {0, *(g for g in labels[1:] if words[g - 1] != words[g]),
                             len(labels)}


@given(st.data())
def test_canonical_sets_invariant_under_any_relabelling(data):
    k = data.draw(st.integers(1, 3))
    ground = data.draw(st.integers(k, 9))
    subsets = st.frozensets(st.integers(0, ground - 1), min_size=k, max_size=k)
    sets = data.draw(st.lists(subsets, max_size=5, unique=True))
    perm = data.draw(st.permutations(range(ground)))
    relabeled = [frozenset(perm[x] for x in s) for s in sets]
    assert least_relabelling(sets) == least_relabelling(relabeled) == \
        canonical_sets(relabeled)


@given(st.data())
def test_canonical_sets_matches_tie_walk(data):
    """Families not in normal form: arbitrary naturals, sets in any order
    and each set's elements in any order.  The tie walk branches over
    every order of each set's new elements, so wider sets get fewer."""
    k = data.draw(st.integers(1, 4))
    ground = data.draw(st.lists(st.integers(0, 10**9), min_size=k, max_size=10,
                                unique=True))
    subsets = st.lists(st.sampled_from(ground), min_size=k, max_size=k, unique=True)
    sets = data.draw(st.lists(subsets, max_size={1: 6, 2: 5, 3: 4, 4: 3}[k],
                              unique_by=frozenset))
    assert canonical_sets(sets) == least_relabelling(sets)


# ---------------------------------------------------------------------------
# Witness verification


def test_pure_set_witness_sizes():
    B = catalog.pure_set(3)
    verdict7 = verify_witness(catalog.pure_set(7), B, 2)
    assert verdict7.passed

    verdict6 = verify_witness(catalog.pure_set(6), B, 2)
    assert not verdict6.passed
    sets = sorted(tuple(sorted(s)) for s in verdict6.counterexample.sets)
    # the only sunflower-free family of six 2-sets: two disjoint triangles
    degree = Counter(x for s in sets for x in s)
    assert sorted(degree.values()) == [2] * 6
    assert not find_sunflower_copies(verdict6.counterexample, B, limit=1)


def test_witness_k1_is_trivial():
    B = catalog.complete_graph(2)
    assert verify_witness(B, B, 1).passed


def test_witness_random_mode():
    B = catalog.pure_set(3)
    assert refute_witness(catalog.pure_set(7), B, 2, 200, 3) == (None, 200)
    # at seed 5 sampling stumbles on a bad family of pure 6/3 at sample 618;
    # the counterexample must genuinely be sunflower-free
    P, drawn = refute_witness(catalog.pure_set(6), B, 2, 4000, 5)
    assert drawn == 618
    assert not find_sunflower_copies(P, B, limit=1)


def test_refute_witness_never_refutes_a_witness():
    # pure 7 forces a sunflower copy of pure 3 at k = 2, as f(2, 3) = 7
    C, B = catalog.pure_set(7), catalog.pure_set(3)
    for seed in range(50):
        assert refute_witness(C, B, 2, 100, seed) == (None, 100)


@pytest.mark.parametrize("C, B, k", [
    (catalog.pure_set(6), catalog.pure_set(3), 2),
    (catalog.pure_set(5), catalog.pure_set(3), 3),
])
def test_refute_witness_returns_only_sunflower_free_presentations(C, B, k):
    refuted = 0
    for seed in range(20):
        P, drawn = refute_witness(C, B, k, 300, seed)
        if P is not None:
            refuted += 1
            assert 1 <= drawn <= 300 and P.base == C and P.k == k
            assert find_sunflower_copies(P, B) == []
    assert refuted


def _k6_minus_edge():
    k6 = catalog.complete_graph(6)
    return Structure(k6.signature, 6,
                     {"E": [t for t in k6.relations["E"] if set(t) != {0, 1}]})


def _sampled_refutation(C, B, k, trials, seed):
    """`refute_witness` spelled out: `random_presentation` samples on its
    seeded rng and `find_sunflower_copies` searches each sample;
    (counterexample sets or None, samples drawn)."""
    rng = random.Random(f"verify-witness|{seed}")
    for i in range(trials):
        P = random_presentation(C, k, rng)
        if not find_sunflower_copies(P, B, limit=1):
            return P.sets, i + 1
    return None, trials


def _frozenset_centre_filter(sets):
    """The sunflower filter on frozensets, with the centre kept per pair of
    first two images."""
    first = second = centre = None

    def flt(depth, v, partial):
        nonlocal first, second, centre
        if depth < 2:
            return True
        if depth == 2 and (partial[0] != first or partial[1] != second):
            first, second = partial
            centre = sets[first] & sets[second]
        s = sets[v]
        return all(sets[u] & s == centre for u in partial)

    return flt


def _frozenset_refutation(C, B, k, trials, seed):
    """`refute_witness` on frozenset k-sets drawn by `rng.sample`, one
    filter per sample: (counterexample sets or None, samples drawn)."""
    rng = random.Random(f"verify-witness|{seed}")
    for i in range(trials):
        sets = tuple(sampled_presentation(C, k, rng))
        if next(_iter_embedding_maps(B, C, _frozenset_centre_filter(sets)), None) is None:
            return sets, i + 1
    return None, trials


# ground 20 and 21 take sample's pool, 22 its rejection branch, and k = 6
# crosses the wider pool threshold between sizes 14 and 15
@pytest.mark.parametrize("C, B, k, trials", [
    (catalog.pure_set(10), catalog.pure_set(5), 2, 20),
    (catalog.pure_set(11), catalog.pure_set(5), 2, 20),
    (catalog.pure_set(14), catalog.pure_set(5), 6, 20),
    (catalog.pure_set(15), catalog.pure_set(5), 6, 20),
    (_k6_minus_edge(), catalog.complete_graph(3), 2, 100),
    (_k6_minus_edge(), catalog.complete_graph(3), 4, 5),
])
def test_refute_witness_matches_frozenset_oracle(C, B, k, trials):
    outcomes = Counter()
    for seed in range(50):
        P, drawn = refute_witness(C, B, k, trials, seed)
        sets = None if P is None else P.sets
        assert (sets, drawn) == _frozenset_refutation(C, B, k, trials, seed)
        outcomes[P is None] += 1
    assert len(outcomes) == 2  # some seeds refute C and some do not


# pure 11/4 at k = 2 has ground 22, so its samples take `sample`'s
# rejection branch; `failing` counts the seeds that refute C
@pytest.mark.parametrize("C, B, k, trials, seeds, failing", [
    (catalog.pure_set(6), catalog.pure_set(3), 2, 300, (0, 12, 13), 2),
    (catalog.pure_set(7), catalog.pure_set(3), 2, 200, (0, 1), 0),
    (catalog.pure_set(10), catalog.pure_set(4), 2, 200, (0, 1), 0),
    (catalog.pure_set(11), catalog.pure_set(4), 2, 200, (0, 1), 0),
    (catalog.pure_set(5), catalog.pure_set(3), 3, 50, (0, 1, 2, 3), 4),
    (_k6_minus_edge(), catalog.complete_graph(3), 2, 300, (0, 19, 26), 2),
])
def test_random_mode_matches_sampling_oracle(C, B, k, trials, seeds, failing):
    refuted = 0
    for seed in seeds:
        P, drawn = refute_witness(C, B, k, trials, seed)
        sets = None if P is None else P.sets
        assert (sets, drawn) == _sampled_refutation(C, B, k, trials, seed)
        refuted += P is not None
    assert refuted == failing


def test_witness_respects_structure():
    # a graph target constrains which triples count as copies
    k2 = catalog.complete_graph(2)
    path = catalog.path_graph(4)
    verdict = verify_witness(path, k2, 1)
    assert verdict.passed  # 1-sets are pairwise disjoint, any edge works


def test_witness_agrees_with_literal_enumeration():
    """The pruned witness search must agree with scanning the enumeration
    stream presentation by presentation."""
    B = catalog.pure_set(3)
    for size in (4, 5):
        C = catalog.pure_set(size)
        literal = all(find_sunflower_copies(P, B, limit=1)
                      for P in enumerate_presentations(C, 2))
        assert verify_witness(C, B, 2).passed == literal
    k2 = catalog.complete_graph(2)
    C = catalog.graph(4, [(0, 1), (2, 3)])
    literal = all(find_sunflower_copies(P, k2, limit=1)
                  for P in enumerate_presentations(C, 2))
    assert verify_witness(C, k2, 2).passed == literal


def test_exhaustive_witness_walk_builds_no_structure(monkeypatch):
    # the walk searches C itself under pools inside each prefix
    k6_minus_edge = catalog.graph(6, [e for e in itertools.combinations(range(6), 2)
                                      if e != (0, 1)])
    cases = [(catalog.pure_set(7), catalog.pure_set(3)),
             (k6_minus_edge, catalog.complete_graph(3))]
    built = []
    init = Structure.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Structure, "__init__", counting)
    for C, B in cases:
        verify_witness(C, B, 2)
        assert built == []


def _adjacent_swaps(C):
    """Per i, whether swapping vertices i and i+1 maps every relation of C
    onto itself."""
    out = []
    for i in range(C.size - 1):
        perm = list(range(C.size))
        perm[i], perm[i + 1] = i + 1, i
        out.append(all({tuple(perm[x] for x in t) for t in ts} == ts
                       for ts in C.relations.values()))
    return out


def _rebuild_verify(C, B, k, ground_budget=18, swap_rule=True):
    """Reference exhaustive walk: rebuild every prefix presentation and
    search it for any sunflower copy.  With `swap_rule`, drop a prefix
    whose last two sets are out of order at an automorphism swap, as
    `verify_witness` does."""
    sets = []
    checked = 0
    swaps = _adjacent_swaps(C)

    def rec(i, next_label):
        nonlocal checked
        if i == C.size:
            checked += 1
            return Presentation(C, k, sets)
        for cand in _normal_form_candidates(sets, k, next_label):
            if swap_rule and i >= 1 and swaps[i - 1] and sets[-1] > cand:
                continue
            sets.append(cand)
            checked += 1
            prefix = Presentation(C.induced(range(len(sets))), k, sets)
            if not find_sunflower_copies(prefix, B, limit=1):
                found = rec(i + 1, max(next_label, max(cand) + 1))
                if found is not None:
                    return found
            sets.pop()
        return None

    assert k * C.size <= ground_budget
    if find_sunflower_copies(Presentation(C.induced(()), k, []), B, limit=1):
        return True, 1, None  # every presentation holds the empty one's copy
    counterexample = rec(0, 0)
    return (counterexample is None, checked,
            None if counterexample is None else counterexample.sets)


ANCHORED_CASES = [
    *[(f"pure-{c}-3", catalog.pure_set(c), catalog.pure_set(3), 2, 18)
      for c in (4, 5, 6, 7)],
    ("pure-10-4", catalog.pure_set(10), catalog.pure_set(4), 2, 22),
    ("k6e-k3", _k6_minus_edge(), catalog.complete_graph(3), 2, 18),
    ("pure-4-0", catalog.pure_set(4), catalog.pure_set(0), 2, 18),
    ("pure-4-1", catalog.pure_set(4), catalog.pure_set(1), 2, 18),
    ("empty-0", catalog.pure_set(0), catalog.pure_set(0), 2, 18),
    ("empty-1", catalog.pure_set(0), catalog.pure_set(1), 2, 18),
    # paths and stars are not vertex-transitive, so every depth of the
    # target must take its turn at the newest vertex
    ("c4-p3", catalog.cycle_graph(4), catalog.graph(3, [(0, 1), (0, 2)]), 2, 18),
    ("c5-p3", catalog.cycle_graph(5), catalog.path_graph(3), 2, 18),
    ("g6-p3", catalog.graph(6, [(0, 1), (0, 2), (0, 5), (1, 2), (2, 3), (2, 4),
                                (3, 5), (4, 5)]), catalog.path_graph(3), 2, 18),
    ("g5-star", catalog.graph(5, [(0, 2), (0, 3), (1, 2), (2, 3), (2, 4)]),
     catalog.graph(4, [(0, 1), (0, 2), (0, 3)]), 2, 18),
    ("k4-p3", catalog.graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)]),
     catalog.path_graph(3), 3, 18),
    ("pure-20-5", catalog.pure_set(20), catalog.pure_set(5), 2, 40),
    # at k=3 a meet class through a 2-set needs no pairwise check, one
    # through a smaller set does
    ("pure-7-3-k3", catalog.pure_set(7), catalog.pure_set(3), 3, 21),
    ("pure-5-3-k3", catalog.pure_set(5), catalog.pure_set(3), 3, 15),
    ("pure-5-1-k3", catalog.pure_set(5), catalog.pure_set(1), 3, 15),
]


@pytest.mark.parametrize("label,C,B,k,budget", ANCHORED_CASES,
                         ids=[case[0] for case in ANCHORED_CASES])
def test_anchored_verify_matches_rebuild(label, C, B, k, budget):
    verdict = verify_witness(C, B, k, ground_budget=budget)
    got = (verdict.passed, verdict.checked,
           None if verdict.counterexample is None else verdict.counterexample.sets)
    assert got == _rebuild_verify(C, B, k, budget)


@pytest.mark.parametrize("label,C,B,k,budget", ANCHORED_CASES,
                         ids=[case[0] for case in ANCHORED_CASES])
def test_swap_rule_keeps_verdict_and_counterexample(label, C, B, k, budget):
    pruned = _rebuild_verify(C, B, k, budget)
    full = _rebuild_verify(C, B, k, budget, swap_rule=False)
    assert (pruned[0], pruned[2]) == (full[0], full[2])
    assert pruned[1] <= full[1]


def test_pure_11_4_walk_finishes_on_its_clock():
    # the walk's per-node cost on a pure-set witness: the run gets 5 s in
    # its own interpreter, about ten times what it needs on 2 vCPUs
    run_on_clock("from sunlab import catalog, ksets\n"
                 "v = ksets.verify_witness(catalog.pure_set(11), catalog.pure_set(4), 2,\n"
                 "                         ground_budget=22)\n"
                 "assert v.passed and v.checked == 19406, v\n", 5)


@st.composite
def twin_graphs(draw):
    """A graph on at most six vertices made from a graph on q vertices by
    blowing each vertex a up into a run of consecutive twins, joined when
    (a, a) is drawn as an edge: swapping two vertices of one run is an
    automorphism, swapping the ends of two runs may or may not be."""
    q = draw(st.integers(1, 4))
    runs = draw(st.lists(st.integers(1, 3), min_size=q, max_size=q))
    q_edges = draw(st.sets(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))))
    owner = [a for a, r in enumerate(runs) for _ in range(r)][:6]
    return catalog.graph(len(owner), [
        (u, v) for u, v in itertools.combinations(range(len(owner)), 2)
        if (owner[u], owner[v]) in q_edges])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(twin_graphs(), st.integers(2, 3), st.data())
def test_swap_rule_on_twin_graphs(C, b, data):
    edges = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(b), 2)))))
    B = catalog.graph(b, edges)
    verdict = verify_witness(C, B, 2)
    got = (verdict.passed, verdict.checked,
           None if verdict.counterexample is None else verdict.counterexample.sets)
    assert got == _rebuild_verify(C, B, 2)
    full = _rebuild_verify(C, B, 2, swap_rule=False)
    assert (got[0], got[2]) == (full[0], full[2]) and got[1] <= full[1]


def canonicalise_presentation(P: Presentation) -> Presentation:
    """Relabel the ground set to canonical first-appearance labels (used
    before comparing presentations from external files)."""
    return Presentation(P.base, P.k, canonical_sets(P.sets))


def test_canonicalise_presentation():
    pure3 = catalog.pure_set(3)
    P = Presentation(pure3, 2, [(10, 20), (10, 30), (20, 30)])
    Q = canonicalise_presentation(P)
    assert [tuple(sorted(s)) for s in Q.sets] == [(0, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# Encoding colourings


def test_encode_constant_colouring():
    k2 = catalog.complete_graph(2)
    P = encode_colouring(k2, Colouring([5, 5]))
    assert P.sets[0] & P.sets[1] == fs(11)
    certs = find_sunflower_copies(P, k2)
    assert len(certs) == 1 and certs[0].centre == fs(11)


def test_encode_injective_colouring():
    k2 = catalog.complete_graph(2)
    P = encode_colouring(k2, Colouring([0, 1]))
    assert P.sets[0].isdisjoint(P.sets[1])
    certs = find_sunflower_copies(P, k2)
    assert len(certs) == 1 and certs[0].centre == fs()


def test_encode_single_point():
    pt = catalog.pure_set(1)
    P = encode_colouring(pt, Colouring([3]))
    assert P.sets == (fs(0, 7),)


def decode_vertex(code: int) -> int:
    if code % 2 != 0:
        raise ValueError("not a vertex code")
    return code // 2


def decode_colour(code: int) -> int:
    if code % 2 != 1:
        raise ValueError("not a colour code")
    return (code - 1) // 2


def test_encode_codes_decode():
    S = catalog.pure_set(4)
    chi = Colouring([2, 0, 2, 1])
    P = encode_colouring(S, chi)
    for v, s in enumerate(P.sets):
        even = [x for x in s if x % 2 == 0]
        odd = [x for x in s if x % 2 == 1]
        assert decode_vertex(even[0]) == v
        assert decode_colour(odd[0]) == chi(v)


def test_encoding_matches_colour_search():
    rng = random.Random(19)
    for _ in range(30):
        S = gen_named("random-graph", rng.randint(3, 7), rng.randrange(100))
        chi = Colouring([rng.randrange(3) for _ in range(S.size)])
        sub = sorted(rng.sample(range(S.size), rng.randint(2, 3)))
        B = S.induced(sub)
        P = encode_colouring(S, chi)
        mono_images = set()
        hetero_images = set()
        for cert in find_sunflower_copies(P, B):
            if cert.centre:
                mono_images.add(frozenset(cert.petals))
            else:
                hetero_images.add(frozenset(cert.petals))
        rep = colour_copy_search(S, chi, B)
        assert len(mono_images) == rep.mono_count
        assert len(hetero_images) == rep.hetero_count
