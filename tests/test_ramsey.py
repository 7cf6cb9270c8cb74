"""Suitable-set arithmetic, the dichotomy counts, the failure bound, Berge
girth, hypergraph generation and the adversary."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunlab import ramsey
from sunlab.ramsey import (
    GenParams,
    PartitionedHypergraph,
    SuitableParams,
    _CHUNK,
    _blocks,
    _cycle_indices,
    _draws_below,
    _lex_subsets,
    _partition_search,
    default_epsilon,
    dichotomy_holds,
    failure_bound,
    falling_binomial,
    gen_witness_hypergraph,
    hetero_transversal_count,
    hypergraph_girth,
    is_counterexample_tuple,
    log_failure_bound,
    mono_nset_count,
    suitable_params,
    witness_adversary,
)
from sunlab.structures import BudgetExceeded


# ---------------------------------------------------------------------------
# Suitable parameters


def suitable_params_hold(sp: SuitableParams) -> bool:
    """Re-check both defining inequalities under exact arithmetic."""
    first = (1 - sp.n * sp.epsilon) ** sp.n > 1 - sp.a1
    second = (falling_binomial(sp.c_min * sp.epsilon, sp.n)
              - sp.a0 * Fraction(sp.c_min) ** sp.n > 0)
    positive = sp.c_min * sp.epsilon > sp.n - 1
    return first and second and positive and 0 < sp.a0 < 1


def test_suitable_params_n2():
    sp = suitable_params(2, Fraction(1, 2))
    assert sp.epsilon == Fraction(1, 8)
    assert (1 - 2 * sp.epsilon) ** 2 == Fraction(9, 16) > Fraction(1, 2)
    assert suitable_params_hold(sp)


def test_suitable_params_n3():
    sp = suitable_params(3, Fraction(1, 6))
    assert sp.epsilon == Fraction(1, 64)
    assert suitable_params_hold(sp)


def test_suitable_params_rejects_bad_a1():
    with pytest.raises(ValueError):
        suitable_params(2, Fraction(1))
    with pytest.raises(ValueError):
        suitable_params(2, Fraction(0))


def test_suitable_params_other_uniformities():
    for n in (4, 5):
        sp = suitable_params(n, Fraction(1, 3))
        assert suitable_params_hold(sp)


def test_c_min_is_tight():
    sp = suitable_params(2, Fraction(1, 2))
    c = sp.c_min - 1
    assert not (falling_binomial(c * sp.epsilon, 2)
                - sp.a0 * Fraction(c) ** 2 > 0)


def test_dichotomy_small_sweep():
    sp = suitable_params(2, Fraction(1, 2))
    rng = random.Random(3)
    for c in (sp.c_min, sp.c_min + 7):
        parts = [list(range(c)), list(range(c, 2 * c))]
        for _ in range(50):
            ncols = rng.choice([1, 2, 3, c // 2, 2 * c])
            chi = [rng.randrange(ncols) for _ in range(2 * c)]
            assert dichotomy_holds(parts, chi, sp)


# ---------------------------------------------------------------------------
# Counting


def test_counts_match_enumeration():
    # one colouring at a time, against every n-subset of the parts' union
    rng = random.Random(11)
    for n in range(1, 5):
        for _ in range(20):
            c = rng.randint(1, 5 if n < 4 else 3)
            parts = [list(range(i * c, (i + 1) * c)) for i in range(n)]
            for ncols in sorted({1, 2, 3, n, n * c}):
                chi = [rng.randrange(ncols) for _ in range(n * c)]
                mono = [0] * n
                hetero = 0
                for sub in itertools.combinations(range(n * c), n):
                    owners = {v // c for v in sub}
                    colours = {chi[v] for v in sub}
                    if len(owners) == 1 and len(colours) == 1:
                        mono[next(iter(owners))] += 1
                    hetero += len(owners) == n and len(colours) == n
                assert [mono_nset_count(p, chi, n) for p in parts] == mono
                assert hetero_transversal_count(parts, chi) == hetero


def test_hetero_count_direct_formula_n2():
    parts = [[0, 1, 2], [3, 4, 5]]
    chi = [0, 0, 1, 0, 1, 2]
    brute = sum(1 for u in parts[0] for v in parts[1] if chi[u] != chi[v])
    assert hetero_transversal_count(parts, chi) == brute


# ---------------------------------------------------------------------------
# Failure bound


def test_failure_bound_decreasing_for_large_epsilon():
    a = Fraction(1, 2)
    logs = []
    for power in range(10, 17):
        params = GenParams(2, 1, 2, Fraction(3, 4), 2 ** power)
        logs.append(log_failure_bound(params, a))
    assert all(x > y for x, y in zip(logs, logs[1:]))
    assert failure_bound(GenParams(2, 1, 2, Fraction(3, 4), 2 ** 16), a) == 0.0


def test_failure_bound_spot_value():
    params = GenParams(2, 1, 4, Fraction(1, 8), 16)
    a = Fraction(1, 4)
    expected = (-0.25 * 16.0 ** 1.125
                + (16 * 2 * 1 + 16 * 2 + 1) * math.log(16)
                + 16 * 2 * 1 * math.log(2))
    assert abs(log_failure_bound(params, a) - expected) < 1e-9


def test_failure_bound_vacuous_at_zero_a():
    params = GenParams(2, 1, 4, Fraction(1, 8), 16)
    assert failure_bound(params, Fraction(0)) >= 1.0


def test_genparams_probability_constraint():
    with pytest.raises(ValueError):
        GenParams(2, 1, 4, Fraction(1, 8), 2)  # p = 2^(-7/8) > 1/2
    p = GenParams(3, 1, 4, Fraction(1, 8), 4).p
    assert abs(float(p) - 4.0 ** (-15 / 8)) < 1e-9


def test_no_desk_scale_part_size_certifies():
    # generation takes the part size _C_CAP = 32 because no power of two up
    # to it brings the failure bound below 1/2; should that change, the
    # default part size needs revisiting
    for n in range(2, 9):
        for s in (1, 2, 3, 8, 1024):
            a = min(suitable_params(n, Fraction(1, 2 * s)).a0, Fraction(1, 2))
            for g in range(2, 11):
                for c in (4, 8, 16, 32):
                    assert failure_bound(GenParams(n, s, g, default_epsilon(g), c), a) >= 0.5


def potential_cycle_count(num_vertices: int, n: int, m: int) -> int:
    """Sequences v0 e0 ... v_{m-1} e_{m-1} with distinct vertices and each
    e_i an n-set containing {v_i, v_{i+1}} (edges may repeat): the
    expectation-counting universe for short cycles."""
    perm = 1
    for j in range(m):
        perm *= (num_vertices - j)
    return perm * math.comb(num_vertices - 2, n - 2) ** m


def test_potential_cycle_count():
    # tiny exhaustive enumeration against the closed form and the bound
    V, n, m = 5, 3, 2
    count = 0
    for vs in itertools.permutations(range(V), m):
        for es in itertools.product(
                list(itertools.combinations(range(V), n)), repeat=m):
            ok = all({vs[i], vs[(i + 1) % m]} <= set(es[i]) for i in range(m))
            if ok:
                count += 1
    assert count == potential_cycle_count(V, n, m)
    assert count < (V) ** (m * (n - 1)) or count < (5 * n) ** (m * (n - 1))


# ---------------------------------------------------------------------------
# Girth


def hg(n, parts, edges):
    return PartitionedHypergraph(n, parts, edges)


def test_girth_two():
    H = hg(3, [[0, 1], [2, 3], [4, 5]], [(0, 2, 4), (0, 2, 5)])
    assert hypergraph_girth(H) == 2


def test_girth_fano_plane():
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
             (2, 3, 6), (2, 4, 5)]
    H = hg(3, [[0, 1, 2], [3, 4, 5], [6, 7, 8]], lines)
    assert hypergraph_girth(H) == 3


def test_girth_loose_tree_infinite():
    H = hg(3, [[0, 1, 2], [3, 4, 5], [6, 7, 8]],
           [(0, 1, 3), (3, 4, 6), (6, 7, 2)])
    assert hypergraph_girth(H) == math.inf


def brute_girth(H):
    """Oracle: scan every vertex/edge sequence for a Berge cycle."""
    edges = list(map(frozenset, H.edges))
    verts = H.vertices
    best = math.inf
    for m in range(2, min(len(edges), len(verts)) + 1):
        if m >= best:
            break
        for vs in itertools.permutations(verts, m):
            for es in itertools.permutations(range(len(edges)), m):
                if all({vs[i], vs[(i + 1) % m]} <= edges[es[i]]
                       for i in range(m)):
                    best = min(best, m)
                    break
            if best == m:
                break
    return best


def _short_cycles(vertices, edges, g):
    """`_cycle_indices` on a set of frozenset edges, each cycle as a list of
    edges; the victim is the edge max(cycle, key=sorted)."""
    edges = sorted(edges, key=sorted)
    for cyc in _cycle_indices(vertices, [sorted(e) for e in edges], g):
        yield [edges[i] for i in cyc]


def _rec_short_cycles(vertices, edges, g):
    """Oracle: the Berge cycles of length < g in the canonical order of
    `_short_cycles`, by a recursive search over incidence lists that
    restarts at (length, v0) after every victim it deletes."""
    edges = sorted(edges, key=sorted)
    members = [sorted(e) for e in edges]
    incident = {v: [] for v in vertices}
    for idx, e in enumerate(members):
        for v in e:
            incident[v].append(idx)

    def rec(v0, cur, m, used_e, in_path):
        if len(used_e) == m - 1:
            for ei in incident[cur]:
                if ei not in used_e and v0 in edges[ei]:
                    return used_e + [ei]
            return None
        for ei in incident[cur]:
            if ei in used_e:
                continue
            for w in members[ei]:
                if w in in_path or w <= v0:
                    continue
                in_path.add(w)
                used_e.append(ei)
                found = rec(v0, w, m, used_e, in_path)
                if found is not None:
                    return found
                used_e.pop()
                in_path.discard(w)
        return None

    for m in range(2, g):
        for v0 in vertices:
            while (found := rec(v0, v0, m, [], {v0})) is not None:
                yield [edges[i] for i in found]
                victim = max(found)  # the edges are sorted by key=sorted
                for v in members[victim]:
                    incident[v].remove(victim)


def _removal_log(search, vertices, edges, g):
    """The cycles `search` yields, each victim discarded as generation does."""
    edges = set(edges)
    log = []
    for cyc in search(vertices, edges, g):
        log.append(cyc)
        edges.discard(max(cyc, key=sorted))
    return log, edges


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 7])
def test_short_cycles_match_the_recursive_search(n, g):
    # labels 0-based, negative, sparse, above 2^40, and in no monotone order
    rng = random.Random(f"short-cycles|{n}|{g}")
    relabel = [lambda v: v, lambda v: v - 40, lambda v: 7919 * v + 3,
               lambda v: (1 << 40) + 3 * v - 20, lambda v: (v * 37) % 101 - 50]
    longest = 0
    for trial in range(100):
        size = rng.randrange(n, 8 * n)
        universe = range(size)
        edges = {frozenset(rng.sample(universe, n))
                 for _ in range(rng.randrange(1, 4 * size // n + 2))}
        label = relabel[trial % len(relabel)]
        vertices = sorted(map(label, universe))
        if trial % 2:
            rng.shuffle(vertices)  # the search tries v0 in the order given
        moved = {frozenset(map(label, e)) for e in edges}
        got = _removal_log(_short_cycles, vertices, moved, g)
        assert got == _removal_log(_rec_short_cycles, vertices, moved, g)
        longest = max([longest, *map(len, got[0])])
    # two distinct 2-sets never share two vertices, so n = 2 has no 2-cycles
    assert longest == g - 1 or g == 2 or (n, g) == (2, 3)


def test_girth_matches_brute_force():
    rng = random.Random(23)
    for _ in range(20):
        edges = set()
        while len(edges) < 4:
            edges.add(tuple(sorted(rng.sample(range(6), 2))))
        H = hg(2, [[0, 1, 2], [3, 4, 5]], edges)
        assert hypergraph_girth(H) == brute_girth(H)


# ---------------------------------------------------------------------------
# Generation


def test_generated_hypergraph_properties():
    for n, s, seed in [(2, 1, 0), (2, 2, 1), (3, 1, 2), (3, 2, 3)]:
        H = gen_witness_hypergraph(n, s, 4, seed)
        assert hypergraph_girth(H, cap=3) == math.inf
        assert len({len(p) for p in H.parts}) == 1
        assert len(H.edges) >= 1
        if n == 2:
            # the asymptotic removal budget is attainable at uniformity 2
            assert H.meta["removal_budget_met"]
        assert "removed_edges" in H.meta


class _ChunkedRandom(random.Random):
    """A Random whose randbytes refuses requests above one chunk, so the
    bytes held at once stay at 8 * _CHUNK."""

    def randbytes(self, n):
        assert n <= 8 * _CHUNK
        return super().randbytes(n)


@pytest.mark.parametrize("n,c", [(2, 5), (3, 16), (4, 6)])
@pytest.mark.parametrize("p", [0.4999999, 0.25, 1e-4, 3e-7, 0.0])
def test_bulk_draws_match_one_by_one(n, c, p):
    # 45 draws are fewer than one chunk; 17,296 and 10,626 are not multiples of it
    for total in (0, math.comb(n * c, n), _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK):
        for seed in range(3):
            one, bulk = random.Random(seed), _ChunkedRandom(seed)
            expect = [i for i in range(total) if one.random() < p]
            assert _draws_below(bulk, total, p) == expect
            assert bulk.getstate() == one.getstate()


def test_bulk_draws_decide_a_draw_equal_to_p():
    # random() < p is strict, and the candidate byte of p itself is kept
    rng = random.Random(9)
    values = [rng.random() for _ in range(300)]
    for i, v in enumerate(values):
        if v < 0.5:
            for q, below in ((v, False), (math.nextafter(v, 1), True)):
                assert (i in _draws_below(random.Random(9), 300, q)) == below


@pytest.mark.parametrize("N,n", [(1, 1), (5, 5), (9, 9), (7, 1), (96, 1), (12, 2),
                                 (96, 2), (10, 3), (48, 3), (96, 3), (24, 4),
                                 (30, 4), (18, 5), (24, 5)])
def test_lex_subsets_match_combinations(N, n):
    every = list(itertools.combinations(range(N), n))
    rng = random.Random(f"lex|{N}|{n}")
    ranks = sorted({0, len(every) - 1, *rng.sample(range(len(every)),
                                                   min(len(every), 300))})
    assert _lex_subsets(N, n, ranks) == [every[r] for r in ranks]
    assert _lex_subsets(N, n, []) == []


def test_lex_subsets_first_and_last_of_a_large_range():
    # C(96, 5) = 61,124,064 subsets: too many to list
    assert _lex_subsets(96, 5, [0, math.comb(96, 5) - 1]) == [
        (0, 1, 2, 3, 4), (91, 92, 93, 94, 95)]
    assert _lex_subsets(96, 5, [1, math.comb(95, 4)]) == [
        (0, 1, 2, 3, 5), (1, 2, 3, 4, 5)]


def _restart_removal(n, s, g, seed, c, max_attempts, resume=False):
    """Oracle: generation with one rng.random() call per n-subset and every
    attempt's cycle removal run to the end, the oracle `_rec_short_cycles`
    restarted from scratch on the remaining edges after every deleted edge
    (or, with `resume`, `_short_cycles` resumed); returns the chosen
    attempt's edges and the meta entries that depend on the draws."""
    p = float(GenParams(n, s, g, default_epsilon(g), c).p)
    universe = list(range(n * c))
    results = []
    for attempt in range(max_attempts):
        rng = random.Random(f"hypergraph|{n}|{s}|{g}|{seed}|{attempt}")
        edges = {frozenset(comb) for comb in itertools.combinations(universe, n)
                 if rng.random() < p}
        removed = 0
        cycles = (_short_cycles(universe, edges, g) if resume else
                  iter(lambda: next(_rec_short_cycles(universe, edges, g), None), None))
        for cyc in cycles:
            edges.discard(max(cyc, key=sorted))
            removed += 1
        if edges and removed < c:
            results = [(removed, attempt, edges)]
            break
        if edges:
            results.append((removed, attempt, edges))
    removed, attempt, edges = min(results, key=lambda r: r[:2])
    return edges, {"attempt": attempt, "removed_edges": removed,
                   "edge_count": len(edges), "removal_budget_met": removed < c}


def _drawn_meta(H):
    return {key: H.meta[key] for key in
            ("attempt", "removed_edges", "edge_count", "removal_budget_met")}


@pytest.mark.parametrize("n,c", [(2, 8), (2, 12), (3, 6), (3, 8), (3, 32), (4, 3),
                                 (4, 4)])
@pytest.mark.parametrize("g", [3, 4, 5])
def test_resumed_removal_matches_restarts(n, c, g, monkeypatch):
    # c = 32 is the extract chain's size, 142,880 draws per attempt
    attempts = 2 if c == 32 else 3
    monkeypatch.setattr(ramsey, "_MAX_ATTEMPTS", attempts)
    for seed in range(2):
        H = gen_witness_hypergraph(n, 1, g, seed, c_override=c)
        edges, meta = _restart_removal(n, 1, g, seed, c, attempts)
        assert set(map(frozenset, H.edges)) == edges
        assert _drawn_meta(H) == meta


def test_early_stop_matches_generation_without_it():
    # at n=3, c=16 and n=4, c=4 every attempt removes at least c edges, so
    # all ten run and every attempt after the first can stop early
    overshot = 0
    cases = [(3, s, 16, seed) for s in (1, 2) for seed in range(3)]
    cases += [(2, 1, 5, seed) for seed in range(3)] + [(4, 1, 4, seed) for seed in range(3)]
    for n, s, c, seed in cases:
        H = gen_witness_hypergraph(n, s, 4, seed, c_override=c)
        edges, meta = _restart_removal(n, s, 4, seed, c, 10, resume=True)
        assert set(map(frozenset, H.edges)) == edges
        assert _drawn_meta(H) == meta
        overshot += not meta["removal_budget_met"]
    assert overshot == 9


def test_generation_deterministic():
    a = gen_witness_hypergraph(2, 1, 4, 7)
    b = gen_witness_hypergraph(2, 1, 4, 7)
    assert a.edges == b.edges and a.parts == b.parts


def test_generation_girth_two_needs_no_removals():
    H = gen_witness_hypergraph(2, 1, 2, 5)
    assert H.meta["removed_edges"] == 0


def test_generation_uncapped_bound_not_certified():
    H = gen_witness_hypergraph(2, 1, 4, 11)
    assert H.meta["bound_certified"] is False  # desk-scale c cannot certify


# ---------------------------------------------------------------------------
# Adversary


def test_adversary_single_transversal_edge():
    H = hg(2, [[0], [1]], [(0, 1)])
    result = witness_adversary(H, 1)
    assert result is not None
    blocks = result[0]
    assert any(set(b) >= {0, 1} for b in blocks)
    assert is_counterexample_tuple(H, result)


def test_adversary_merged_colouring_hits_inner_edge():
    H = hg(2, [[0, 1], [2, 3]], [(0, 1), (0, 2)])
    merged = [tuple([tuple(range(4))])]
    assert not is_counterexample_tuple(H, merged)


def test_adversary_certifies_a_small_witness():
    # a within-part edge whose endpoints are joined by a long transversal
    # path cannot be split away by a single colouring
    H = hg(2, [[0, 1, 2], [3, 4, 5]],
           [(0, 1), (0, 3), (3, 2), (2, 4), (4, 1)])
    assert witness_adversary(H, 1) is None
    # a second colouring breaks it
    res2 = witness_adversary(H, 2)
    assert res2 is not None and is_counterexample_tuple(H, res2)


def test_adversary_kernel_invariance():
    rng = random.Random(2)
    H = gen_witness_hypergraph(2, 1, 4, 4, c_override=3)
    res = witness_adversary(H, 1)
    if res is not None:
        assert is_counterexample_tuple(H, res)
        # relabelling block ids leaves the verdict unchanged
        renamed = [tuple(reversed(p)) for p in res]
        assert is_counterexample_tuple(H, renamed)


@pytest.mark.parametrize("s, nodes", [(1, 7), (2, 8)])
def test_adversary_node_budget(s, nodes):
    # the golden h2c6 instance survives s=1 after walking its whole tree of
    # 7 nodes, and s=2 defeats it at the 8th; a node is one inner search call
    H = gen_witness_hypergraph(2, 1, 4, 1, c_override=6)
    unbounded = witness_adversary(H, s, budget=math.inf)
    assert (unbounded is None) == (s == 1)
    assert witness_adversary(H, s, budget=nodes) == unbounded
    with pytest.raises(BudgetExceeded, match=f"node budget of {nodes - 1}$"):
        witness_adversary(H, s, budget=nodes - 1)


def _brute_adversary(H, s):
    """Oracle: enumerate every s-tuple of set partitions directly."""
    verts = H.vertices
    parts = [tuple(tuple(verts[i] for i in b) for b in _blocks(rgs))
             for rgs in _all_rgs(len(verts))]
    for tup in itertools.product(parts, repeat=s):
        if is_counterexample_tuple(H, tup):
            return tup
    return None


def _all_rgs(V):
    """Every restricted growth string of length V, in lexicographic order."""
    strings = [[]]
    for _ in range(V):
        strings = [r + [b] for r in strings for b in range(max(r, default=-1) + 2)]
    return strings


def _kill_mask(rgs, whole, trans):
    """None if a within-part edge is monochromatic, else the bitmask of the
    transversal edges with a repeated label."""
    if any(len({rgs[i] for i in e}) == 1 for e in whole):
        return None
    return sum(1 << bit for bit, e in enumerate(trans)
               if len({rgs[i] for i in e}) < len(e))


def _full_scan_adversary(H, s):
    """Oracle: the exhaustive adversary as a full scan, computing the kill
    mask of every complete restricted growth string before covering."""
    verts = H.vertices
    pos = {v: i for i, v in enumerate(verts)}
    whole = [[pos[v] for v in e] for e in H.within_part_edges()]
    trans = [[pos[v] for v in e] for e in H.transversal_edges()]
    full = (1 << len(trans)) - 1
    mask_rep = {}
    for rgs in _all_rgs(len(verts)):
        mask = _kill_mask(rgs, whole, trans)
        if mask is None:
            continue
        mask_rep.setdefault(mask, tuple(
            tuple(v for v, b in zip(verts, rgs) if b == label)
            for label in sorted(set(rgs))))
        if mask == full:
            return [mask_rep[full]] * s
    masks = sorted(mask_rep, key=lambda m: (-bin(m).count("1"), m))

    def cover(start, acc, chosen):
        if acc == full:
            return chosen
        if len(chosen) == s:
            return None
        for i in range(start, len(masks)):
            if acc | masks[i] != acc:
                res = cover(i, acc | masks[i], chosen + [masks[i]])
                if res is not None:
                    return res
        return None

    solution = cover(0, 0, []) if mask_rep else None
    if solution is None:
        return None
    partitions = [mask_rep[m] for m in solution]
    return partitions + [partitions[-1]] * (s - len(partitions))


def _check_counterexample(H, s, res):
    """The adversary's counterexample contract: s partitions of H's
    vertices that defeat it, blocks ascending by least vertex, and the
    colourings never opened (all singletons) last."""
    assert len(res) == s and is_counterexample_tuple(H, res)
    for p in res:
        assert sorted(v for block in p for v in block) == list(H.vertices)
        assert list(p) == sorted(p) and all(list(b) == sorted(b) for b in p)
    opened = [any(len(b) > 1 for b in p) for p in res]
    assert opened == sorted(opened, reverse=True)


def test_adversary_matches_full_scan():
    rng = random.Random(37)
    instances = [gen_witness_hypergraph(2, 1, 4, 5, c_override=5),
                 hg(1, [[0, 1]], [(1,)]), hg(1, [[0, 1, 2]], [])]
    for _ in range(24):
        n = rng.choice([2, 3])
        c = rng.choice([2, 3])
        universe = list(range(n * c))
        pool = list(itertools.combinations(universe, n))
        edges = [e for e in pool if rng.random() < rng.choice([0.15, 0.3])]
        instances.append(hg(n, [universe[i * c:(i + 1) * c] for i in range(n)],
                            edges))
    # denser graphs, where no single colouring kills every transversal edge
    rng = random.Random(38)
    for _ in range(8):
        c = rng.choice([3, 4])
        edges = [e for e in itertools.combinations(range(2 * c), 2) if rng.random() < 0.6]
        instances.append(hg(2, [range(c), range(c, 2 * c)], edges))
    # ten vertices and no counterexample at s=2
    rng = random.Random(1)
    edges = [e for e in itertools.combinations(range(10), 2) if rng.random() < 0.5]
    instances.append(hg(2, [range(5), range(5, 10)], edges))
    full_kill = 0
    for H in instances:
        scans = {s: _full_scan_adversary(H, s) for s in (1, 2)}
        for s, scan in scans.items():
            res = witness_adversary(H, s)
            assert (res is None) == (scan is None)
            if res is not None:
                _check_counterexample(H, s, res)
        # one colouring defeats H exactly when it kills every transversal edge
        full_kill += scans[1] is not None
    assert (full_kill, len(instances) - full_kill) == (24, 12)


def test_adversary_matches_brute_force():
    # n in {2, 3} and s in {1, 2, 3}, on at most 4 vertices at s=3 and at
    # most 6 otherwise, so the brute-force oracle stays cheap
    rng = random.Random(53)
    survivors = 0
    for n, s in itertools.product((2, 3), (1, 2, 3)):
        for c in range(1, (4 if s == 3 else 6) // n + 1):
            universe = range(n * c)
            for _ in range(12):
                p = rng.choice([0.3, 0.6, 0.9])
                edges = [e for e in itertools.combinations(universe, n)
                         if rng.random() < p]
                H = hg(n, [universe[i * c:(i + 1) * c] for i in range(n)], edges)
                res = witness_adversary(H, s)
                assert (res is None) == (_brute_adversary(H, s) is None)
                if res is None:
                    survivors += 1
                else:
                    _check_counterexample(H, s, res)
    assert survivors == 18


def test_adversary_counterexample_is_the_first_pair_assignment():
    # edges in order 03, 14, 23, 24: colouring 0 takes 0-3, 1-4 and 2-3,
    # cannot take 2-4 without joining the within-part edge 01, so 2-4
    # opens colouring 1; a third colouring is never opened
    H = hg(2, [[0, 1, 2], [3, 4, 5]], [(0, 1), (0, 3), (3, 2), (2, 4), (4, 1)])
    first = ((0, 2, 3), (1, 4), (5,))
    second = ((0,), (1,), (2, 4), (3,), (5,))
    assert witness_adversary(H, 2) == [first, second]
    assert witness_adversary(H, 3) == [first, second, tuple((v,) for v in range(6))]


def test_adversary_decides_a_deep_matching():
    # 1,000 transversal edges, each merged in its own node at s=1: a search
    # with one Python frame per merge overflows the recursion limit here
    H = hg(2, [range(1000), range(1000, 2000)], [(i, 1000 + i) for i in range(1000)])
    res = witness_adversary(H, 1)
    assert is_counterexample_tuple(H, res)
    _check_counterexample(H, 1, res)


def test_partition_search_opens_a_labelling_per_pair_of_a_triangle():
    # one labelling can merge only one pair of the apart set {0, 1, 2}, so
    # the three pairs take three labellings, each merge relabelling the
    # larger label to the smaller
    kill, apart = [[0, 1], [1, 2], [0, 2]], [[0, 1, 2]]
    assert _partition_search(3, kill, apart, 2, math.inf) is None
    assert _partition_search(3, kill, apart, 3, math.inf) == [[0, 0, 2], [0, 1, 1], [0, 1, 0]]
    assert _partition_search(3, kill, apart + [[1]], 3, math.inf) is None


def _brute_partition_search(V, kill, apart, s):
    """Oracle: whether s labellings of range(V), each giving every apart set
    two labels, together repeat a label in every kill set, by a scan of all
    restricted growth strings and of every s-multiset of their kill masks."""
    masks = {sum(1 << j for j, e in enumerate(kill) if len({rgs[v] for v in e}) < len(e))
             for rgs in _all_rgs(V) if all(len({rgs[v] for v in a}) > 1 for a in apart)}
    full = (1 << len(kill)) - 1
    return any(functools.reduce(operator.or_, combo, 0) == full
               for combo in itertools.combinations_with_replacement(sorted(masks), s))


def _vertex_sets(V):
    # sizes 0 and 1 drawn an eighth as often as each larger size, so that
    # most lists hold no set that decides the search on its own
    sizes = st.sampled_from([k for k in range(V + 1) for _ in range(1 if k < 2 else 8)])
    return sizes.flatmap(lambda k: st.permutations(range(V)).map(lambda p: sorted(p[:k])))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_partition_search_matches_brute_force(data):
    # kill and apart lists drawn independently, with empty lists and sets
    # of 0 or 1 vertices among them
    V = data.draw(st.integers(0, 7))
    s = data.draw(st.integers(1, 3))
    kill = data.draw(st.lists(_vertex_sets(V), max_size=5))
    apart = data.draw(st.lists(_vertex_sets(V), max_size=4))
    labels = _partition_search(V, kill, apart, s, math.inf)
    assert (labels is not None) == _brute_partition_search(V, kill, apart, s)
    if labels is not None:
        assert len(labels) == s and all(len(lab) == V for lab in labels)
        assert all(len({lab[v] for v in a}) > 1 for lab in labels for a in apart)
        assert all(any(len({lab[v] for v in e}) < len(e) for lab in labels) for e in kill)


def test_girth_matches_brute_force_3uniform():
    rng = random.Random(41)
    for _ in range(10):
        edges = set()
        while len(edges) < 4:
            edges.add(tuple(sorted(rng.sample(range(7), 3))))
        H = hg(3, [[0, 1, 2], [3, 4, 5], [6, 7, 8]], edges)
        assert hypergraph_girth(H) == brute_girth(H)
