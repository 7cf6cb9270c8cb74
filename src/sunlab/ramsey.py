"""Probabilistic machinery for partitioned witness hypergraphs.

The pipeline needs finite n-uniform hypergraphs, with vertices split into
n equal parts, rich enough that for any s vertex-colourings there is
either an edge inside a part that some colouring leaves monochromatic or
a transversal edge heterochromatic in every colouring.  Random generation
at edge probability p = c^(1-n+eps) makes this likely at astronomically
large part sizes; at desk scale the generator is honest about the gap and
the pipeline treats generation as Las Vegas, so this module also ships an
adversarial verifier that decides whether some colouring tuple defeats an
instance, by a search over vertex pairs of its transversal edges.

All threshold arithmetic is exact rational; only the final probability
bound is evaluated in floating point (it is advisory).
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .structures import BudgetExceeded


class GenerationError(RuntimeError):
    """Sampling failed its post-checks on every attempt (never silent)."""


class PartitionedHypergraph:
    """An n-uniform hypergraph with vertices split into n equal parts.

    `edges` is a tuple of sorted int tuples in lexicographic order, whatever
    the order of the edges and of their vertices given; a repeated edge is
    kept once, and an edge with a repeated or unknown vertex is rejected."""

    __slots__ = ("n", "parts", "edges", "meta", "_part_of", "_vertices")

    def __init__(self, n: int, parts: Iterable[Iterable[int]],
                 edges: Iterable[Iterable[int]], meta: Optional[dict] = None):
        self.n = int(n)
        self.parts = tuple(tuple(sorted(int(v) for v in p)) for p in parts)
        if len(self.parts) != self.n:
            raise ValueError("need exactly n parts")
        sizes = {len(p) for p in self.parts}
        if len(sizes) != 1:
            raise ValueError("parts must have equal size")
        flat = [v for p in self.parts for v in p]
        if len(set(flat)) != len(flat):
            raise ValueError("parts must be disjoint")
        vertex_set = set(flat)
        self.edges = tuple(sorted({tuple(sorted(set(map(int, e)))) for e in edges}))
        for e in self.edges:
            if len(e) != self.n:
                raise ValueError("edges must have exactly n vertices")
            if not vertex_set.issuperset(e):
                raise ValueError("edge uses an unknown vertex")
        self.meta = dict(meta) if meta else {}
        self._vertices = tuple(sorted(vertex_set))
        self._part_of = {v: i for i, p in enumerate(self.parts) for v in p}

    @property
    def part_size(self) -> int:
        return len(self.parts[0])

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    def within_part_edges(self) -> list[tuple[int, ...]]:
        return [e for e in self.edges if len({self._part_of[v] for v in e}) == 1]

    def transversal_edges(self) -> list[tuple[int, ...]]:
        return [e for e in self.edges if len({self._part_of[v] for v in e}) == self.n]

    def __repr__(self):
        return (f"PartitionedHypergraph(n={self.n}, c={self.part_size}, "
                f"edges={len(self.edges)})")


# ---------------------------------------------------------------------------
# Suitable-set parameter arithmetic (exact rationals)


def falling_binomial(x: Fraction, n: int) -> Fraction:
    """The generalized binomial coefficient binom(x, n) = x(x-1)...(x-n+1)/n!."""
    out = Fraction(1)
    for j in range(n):
        out *= (x - j)
    return out / math.factorial(n)


class SuitableParams:
    """Exact parameters (epsilon, a0, c_min) for the counting dichotomy:
    on n equal parts of size c >= c_min, any colouring yields either
    > a0 * c^n monochromatic n-sets inside some part or
    > (1 - a1) * c^n heterochromatic transversal n-sets."""

    __slots__ = ("n", "a1", "epsilon", "a0", "c_min")

    def __init__(self, n, a1, epsilon, a0, c_min):
        self.n = n
        self.a1 = a1
        self.epsilon = epsilon
        self.a0 = a0
        self.c_min = c_min

    def __repr__(self):
        return (f"SuitableParams(n={self.n}, a1={self.a1}, eps={self.epsilon}, "
                f"a0={self.a0}, c_min={self.c_min})")


def suitable_params(n: int, a1: Fraction) -> SuitableParams:
    """Derive (epsilon, a0, c_min) exactly.

    epsilon is the largest 1/2^t with (1 - n*epsilon)^n > 1 - a1; a0 is
    half the leading coefficient epsilon^n/n! of binom(x*epsilon, n), and
    c_min is found by exact upward search from the point where every
    factor of the falling product is positive and increasing, so the
    inequality holds for all larger c as well.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    a1 = Fraction(a1)
    if not (0 < a1 < 1):
        raise ValueError("a1 must lie strictly between 0 and 1")
    t = 1
    while True:
        eps = Fraction(1, 2 ** t)
        if (1 - n * eps) > 0 and (1 - n * eps) ** n > 1 - a1:
            break
        t += 1
        if t > 64:
            raise RuntimeError("no admissible epsilon of the form 1/2^t found")
    a0 = eps ** n / (2 * math.factorial(n))

    def holds(c: int) -> bool:
        return falling_binomial(c * eps, n) - a0 * Fraction(c) ** n > 0

    # Below the threshold every factor of the falling product is positive
    # and increasing in c, so the inequality is monotone there: gallop for
    # an upper bracket, then bisect for the exact least c.
    lo = (n - 1) * eps.denominator // eps.numerator + 1
    if holds(lo):
        return SuitableParams(n, a1, eps, a0, lo)
    hi = lo + 1
    while not holds(hi):
        hi = 2 * hi
    low, high = lo, hi
    while high - low > 1:
        mid = (low + high) // 2
        if holds(mid):
            high = mid
        else:
            low = mid
    return SuitableParams(n, a1, eps, a0, high)


# ---------------------------------------------------------------------------
# Counting monochromatic part n-sets and heterochromatic transversals


def _colour_counts(part: Iterable[int], colouring) -> dict:
    counts: dict = {}
    for v in part:
        q = colouring[v]
        counts[q] = counts.get(q, 0) + 1
    return counts


def mono_nset_count(part: Iterable[int], colouring, n: int) -> int:
    """Monochromatic n-subsets of one part under one colouring."""
    return sum(math.comb(c, n) for c in _colour_counts(part, colouring).values())


def hetero_transversal_count(parts, colouring) -> int:
    """Heterochromatic transversal n-sets: one vertex per part, no two of
    one colour.  Colour by colour, ways[S] counts the choices of one vertex
    in each part of the bitmask S in distinct colours seen so far; each new
    colour goes to at most one part.  Exact integers throughout."""
    counts = [_colour_counts(p, colouring) for p in parts]
    ways = {0: 1}
    for q in set().union(*counts):
        holders = [(1 << i, c[q]) for i, c in enumerate(counts) if q in c]
        for S, w in list(ways.items()):
            for bit, m in holders:
                if not S & bit:
                    ways[S | bit] = ways.get(S | bit, 0) + w * m
    return ways.get((1 << len(parts)) - 1, 0)


def dichotomy_holds(parts, colouring, sp: SuitableParams) -> bool:
    """The counting dichotomy for one colouring on n equal parts: some part
    has > a0*c^n monochromatic n-sets, or there are > (1-a1)*c^n
    heterochromatic transversals.  Exact comparison."""
    n = sp.n
    c = len(parts[0])
    threshold_mono = sp.a0 * Fraction(c) ** n
    if any(mono_nset_count(p, colouring, n) > threshold_mono for p in parts):
        return True
    threshold_het = (1 - sp.a1) * Fraction(c) ** n
    return hetero_transversal_count(parts, colouring) > threshold_het


# ---------------------------------------------------------------------------
# The failure-probability bound


class GenParams:
    """Parameters of one generation run; p is the rational approximation of
    c^(1-n+epsilon) (12 significant digits) and must be < 1/2."""

    __slots__ = ("n", "s", "g", "epsilon", "c", "p")

    def __init__(self, n: int, s: int, g: int, epsilon: Fraction, c: int):
        self.n = n
        self.s = s
        self.g = g
        self.epsilon = Fraction(epsilon)
        self.c = c
        exponent = 1 - n + self.epsilon
        p_float = float(c) ** float(exponent)
        self.p = Fraction(p_float).limit_denominator(10 ** 12)
        if not self.p < Fraction(1, 2):
            raise ValueError(f"edge probability {float(self.p):.4f} not below 1/2; "
                             "increase c")

    def __repr__(self):
        return (f"GenParams(n={self.n}, s={self.s}, g={self.g}, "
                f"eps={self.epsilon}, c={self.c}, p~{float(self.p):.3g})")


def log_failure_bound(params: GenParams, a: Fraction) -> float:
    """Natural log of the bound on the probability that some s-tuple of
    colourings leaves fewer than c suitable edges."""
    n, s, c = params.n, params.s, params.c
    eps = float(params.epsilon)
    return (-float(a) * float(c) ** (1.0 + eps)
            + (c * n * s + c * n + 1) * math.log(c)
            + c * n * s * math.log(n))


def failure_bound(params: GenParams, a: Fraction) -> float:
    x = log_failure_bound(params, a)
    if x > 700:
        return math.inf
    return math.exp(x)


# ---------------------------------------------------------------------------
# Berge girth


def _cycle_indices(vertices, members, g: int) -> Iterator[list[int]]:
    """Berge cycles of length < g, as lists of indices into `members`, the
    edges as sorted tuples in lexicographic order.  Canonical order: lengths
    ascending, then the first vertex v0 is the least of the cycle, tried
    in the order of `vertices`, then edge indices and vertices ascending
    along the path.  A cycle of length m has m distinct vertices and m
    distinct edges.  Each vertex keeps a bitmask of its live edges'
    indices; a path closes on the lowest edge of inc[cur] & inc[v0] & ~used.

    Each cycle yielded loses its victim, the edge max(cycle), once the
    generator is resumed; the search then resumes at v0's first live edge
    not below the cycle's first edge, since cycles through earlier first
    edges were ruled out and deleting an edge only destroys cycles.  This
    yields the same cycles as restarting after every deletion."""
    inc = dict.fromkeys(vertices, 0)
    for idx, e in enumerate(members):
        for v in e:
            inc[v] |= 1 << idx

    def rec(v0, es: int, left: int, used: int, path: list) -> Optional[list[int]]:
        # the first way to close the path with `left` more edges, the next from es
        while es:
            b = es & -es
            es ^= b
            ei = b.bit_length() - 1
            for w in members[ei]:
                if w > v0 and w not in path:
                    if left == 2:
                        close = inc[w] & inc[v0] & ~(used | b)
                        if close:
                            return [ei, (close & -close).bit_length() - 1]
                        continue
                    path.append(w)
                    found = rec(v0, inc[w] & ~(used | b), left - 1, used | b, path)
                    path.pop()
                    if found is not None:
                        return [ei, *found]
        return None

    for m in range(2, g):
        for v0 in vertices:
            es = inc[v0]
            while found := rec(v0, es, m, 0, [v0]):
                yield found
                for v in members[victim := max(found)]:
                    inc[v] &= ~(1 << victim)
                es = inc[v0] & ~((1 << found[0]) - 1)


def find_short_cycle(H: PartitionedHypergraph, g: int) -> Optional[list[tuple[int, ...]]]:
    """The first Berge cycle of length < g in canonical order (see
    `_cycle_indices`) as a list of edges, or None."""
    cyc = next(_cycle_indices(H.vertices, H.edges, g), None)
    return None if cyc is None else [H.edges[i] for i in cyc]


def hypergraph_girth(H: PartitionedHypergraph, cap: Optional[int] = None):
    """Least m >= 2 admitting a Berge cycle, or math.inf if none of length
    <= cap exists (cap defaults to the trivial maximum; an explicit cap
    must be at least 2)."""
    if cap is None:
        cap = min(len(H.edges), len(H.vertices))
    elif cap < 2:
        raise ValueError("cap must be >= 2")
    cyc = find_short_cycle(H, cap + 1)
    return math.inf if cyc is None else len(cyc)


# ---------------------------------------------------------------------------
# Generation with cycle removal


def default_epsilon(g: int) -> Fraction:
    """The largest 1/2^t strictly below 1/g."""
    t = 1
    while Fraction(1, 2 ** t) >= Fraction(1, g):
        t += 1
    return Fraction(1, 2 ** t)


_CHUNK = 4096  # draws per randbytes call, so memory stays 32 KB
_MAX_ATTEMPTS = 10  # seeded attempts per generation run
_C_CAP = 32  # the largest default part size


def _draws_below(rng: random.Random, total: int, p: float) -> list[int]:
    """The ascending indices i of those of `total` rng.random() draws that
    are below p (0 <= p < 1), making exactly those draws in bulk: randbytes
    yields the same Mersenne Twister words a, b per draw, little-endian,
    and random() is X / 2^53 with X = (a >> 5) * 2^26 + (b >> 6).  X >> 45
    is a's top byte, byte 8i + 3, so only draws with that byte at most
    int(p * 2^53) >> 45 are candidates, each then decided exactly."""
    limit = p * 9007199254740992.0  # 2^53: exact, and int < float compares exactly
    top = int(limit) >> 45
    table = b"\x01" * (top + 1) + bytes(255 - top)
    below = []
    for start in range(0, total, _CHUNK):
        data = rng.randbytes(8 * min(_CHUNK, total - start))
        cand = data[3::8].translate(table)
        i = -1
        while (i := cand.find(1, i + 1)) >= 0:
            w = int.from_bytes(data[8 * i:8 * i + 8], "little")  # a + 2^32 b
            if ((w & 0xFFFFFFFF) >> 5 << 26) + (w >> 38) < limit:
                below.append(start + i)
    return below


def _lex_subsets(N: int, n: int, ranks: Iterable[int]) -> list[tuple[int, ...]]:
    """The n-subsets of range(N) at positions `ranks` of
    itertools.combinations(range(N), n), as sorted tuples.  Position r is
    colex rank C(N, n) - 1 - r of the reflected subset {N - 1 - a}, whose
    members b_n > ... > b_1 are read off greedily: b_j is the largest b
    with C(b, j) at most what is left of the rank, found by bisection."""
    tables = [[math.comb(b, j) for b in range(N)] for j in range(n, 0, -1)]
    last = math.comb(N, n) - 1
    subsets = []
    for r in ranks:
        left, hi, sub = last - r, N, []
        for table in tables:
            hi = bisect_right(table, left, 0, hi) - 1
            left -= table[hi]
            sub.append(N - 1 - hi)
        subsets.append(tuple(sub))
    return subsets


def gen_witness_hypergraph(n: int, s: int, g: int, seed: int,
                           c_override: Optional[int] = None) -> PartitionedHypergraph:
    """Sample an n-uniform hypergraph on n parts of size c with edges drawn
    i.i.d. at p = c^(1-n+eps), then delete one edge per short cycle until
    the Berge girth reaches g.  An attempt makes one rng.random() draw per
    n-subset, in lexicographic order, reading the draws in bulk; it keeps
    the indices of those below p (`_draws_below`) and unranks only them
    into sorted tuples (`_lex_subsets`).  Its one cycle search runs on edge
    indices and per-vertex edge masks and, after every deletion, resumes at
    the current first edge of the cycle's least vertex instead of
    restarting (`_cycle_indices`); it stops once the attempt has removed as
    many edges as the best one so far.

    The theory certifies success only for part sizes far beyond desk
    scale, so c is chosen as the first power of two from 4 whose failure
    bound drops below 1/2, capped at `_C_CAP`; the metadata
    records whether the bound actually certifies the instance.

    Ending with no edges is an error after retries, never silent.  A
    removal count reaching c is also retried (the asymptotic regime keeps
    it below c), but at uniformity 3 and desk-scale c the expected
    short-cycle count always exceeds c, so when every attempt overshoots
    the best instance is returned with meta["removal_budget_met"] = False.
    """
    if n < 2 or s < 1 or g < 2 or (c_override is not None and c_override < 1):
        raise ValueError("need n >= 2, s >= 1, g >= 2 and c >= 1")
    eps = default_epsilon(g)
    sp = suitable_params(n, Fraction(1, 2 * s))
    a = min(sp.a0, Fraction(1, 2))

    def certifies(params: GenParams) -> bool:
        return failure_bound(params, a) < 0.5 and params.c >= sp.c_min

    if c_override is not None:
        try:
            params = GenParams(n, s, g, eps, c_override)
        except ValueError:
            raise ValueError("c_override makes the edge probability >= 1/2") from None
    else:
        # every size tried is admissible: n >= 2 and eps <= 1/4 give
        # p <= 4^(-3/4) < 1/2 at c = 4, and p falls as c grows
        params = GenParams(n, s, g, eps, 4)
        while not certifies(params) and 2 * params.c <= _C_CAP:
            params = GenParams(n, s, g, eps, 2 * params.c)
    certified = certifies(params)

    c = params.c
    p_float = float(params.p)
    universe = range(n * c)
    parts = [universe[i * c:(i + 1) * c] for i in range(n)]

    last_error = None
    best = None
    for attempt in range(_MAX_ATTEMPTS):
        rng = random.Random(f"hypergraph|{n}|{s}|{g}|{seed}|{attempt}")
        ranks = _draws_below(rng, math.comb(n * c, n), p_float)
        members = _lex_subsets(n * c, n, ranks)
        bar = None if best is None else best.meta["removed_edges"]
        victims = {max(cyc) for cyc in
                   itertools.islice(_cycle_indices(universe, members, g), bar)}
        removed = len(victims)
        if removed == bar:  # it can neither succeed nor become the best
            continue
        if removed == len(members):
            last_error = "only 0 edges < floor 1"
            continue
        edges = [e for i, e in enumerate(members) if i not in victims]
        meta = {
            "n": n, "s": s, "g": g, "seed": seed, "attempt": attempt,
            "epsilon": str(eps), "c": c, "p": str(params.p),
            "removed_edges": removed, "edge_count": len(edges),
            "removal_budget_met": removed < c,
            "bound_certified": bool(certified),
            "a0": str(sp.a0), "c_min": sp.c_min,
            "log_failure_bound": log_failure_bound(params, a),
        }
        out = PartitionedHypergraph(n, parts, edges, meta)
        if removed < c:
            return out
        last_error = f"removed {removed} >= c = {c} edges"
        best = out
    if best is not None:
        return best
    raise GenerationError(f"all {_MAX_ATTEMPTS} attempts failed: {last_error}")


# ---------------------------------------------------------------------------
# Adversarial verification of the dichotomy property


def is_counterexample_tuple(H: PartitionedHypergraph, partitions) -> bool:
    """True iff the s partitions defeat the instance: no within-part edge is
    monochromatic under its colouring, and every transversal edge fails to
    be heterochromatic under at least one colouring."""
    block_of = [{v: b for b, block in enumerate(p) for v in block} for p in partitions]
    for e in H.within_part_edges():
        if any(len({m[v] for v in e}) == 1 for m in block_of):
            return False
    for e in H.transversal_edges():
        if all(len({m[v] for v in e}) == len(e) for m in block_of):
            return False
    return True


def _partition_search(V: int, kill: Sequence, apart: Sequence, s: int, budget) -> Optional[list]:
    """s labellings of range(V) under which each kill set repeats a label in
    some labelling and each apart set has two labels in all, or None.

    An exact reduction: they exist iff each kill set can be given a
    labelling and a pair inside it so that, in every labelling, no apart set
    lies in one component of the pairs it was given.  (=>) Give each kill
    set a pair it repeats: components lie in label classes, which hold no
    apart set.  (<=) Label by components.

    One loop over a stack of option generators takes the kill sets in
    order, skipping one already killed (fewer labels than vertices) in an
    opened labelling, else trying the opened labellings, then one new one,
    each with the set's pairs in lexicographic order.  A merge relabels the
    larger label to the smaller, unless an apart set would get one label;
    labellings never opened stay singletons.  Each state visited is one
    node, and needing more than `budget` nodes raises BudgetExceeded.
    """
    if any(len(a) < 2 for a in apart):
        return None
    singletons = list(range(V))

    def options(i: int, labels: list) -> Iterator[tuple[int, list]]:
        for k in range(min(len(labels) + 1, s)):
            lab = labels[k] if k < len(labels) else singletons
            for a, b in itertools.combinations(kill[i], 2):
                lo, hi = sorted((lab[a], lab[b]))
                merged = [lo if x == hi else x for x in lab]
                if not any(all(merged[v] == lo for v in w) for w in apart):
                    yield i + 1, labels[:k] + [merged] + labels[k + 1:]

    nodes = 0
    stack = [iter([(0, [])])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"adversary search cut off at a node budget of {budget}")
        i, labels = state
        while i < len(kill) and any(len({lab[v] for v in kill[i]}) < len(kill[i])
                                    for lab in labels):
            i += 1
        if i == len(kill):
            return labels + [singletons] * (s - len(labels))
        stack.append(options(i, labels))
    return None


def _blocks(labels) -> list[list[int]]:
    """The blocks {i : labels[i] == b}, in ascending order of the label b."""
    blocks: dict = {}
    for i, b in enumerate(labels):
        blocks.setdefault(b, []).append(i)
    return [blocks[b] for b in sorted(blocks)]


def witness_adversary(H: PartitionedHypergraph, s: int, budget: int = 10 ** 6):
    """Search s-tuples of vertex partitions defeating the dichotomy.

    Colourings only matter through their kernels, so this is _partition_search
    on H's vertex indices, with the transversal edges as kill sets and the
    within-part edges as apart sets.  It returns the partitions found, blocks
    ordered by least vertex, or None if H really is a witness.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pos = {v: i for i, v in enumerate(H.vertices)}
    labels = _partition_search(len(pos), [[pos[v] for v in e] for e in H.transversal_edges()],
                               [[pos[v] for v in e] for e in H.within_part_edges()], s, budget)
    return None if labels is None else [
        tuple(tuple(H.vertices[i] for i in b) for b in _blocks(lab)) for lab in labels]
