"""Structures on k-sets: presentations, sunflower detection and extraction,
canonical enumeration of presentations, witness verification, and the
encoding of a colouring into a structure on 2-sets.

A presentation assigns a distinct k-set of naturals to every vertex of a
base structure.  Whether a sunflower copy of some target exists depends
only on the intersection pattern of the assigned sets, so enumerating
presentations up to a bijection of the ground set is an exhaustive oracle:
over a ground set of k * |C| naturals every pattern is realised.  The
canonical form introduces ground labels in increasing order of first
appearance (vertices in index order, each set read in increasing order)
and keeps the lexicographically least representative of each orbit.

That representative needs no search.  Read the sets in vertex order and
keep the labelled elements in cells, consecutive blocks of labels whose
internal order is still free.  Each set takes the lowest labels of every
cell it meets, splitting the cell into its present part and then its
absent part, and its new elements take the next labels as a new last cell.
Per cell this choice is pointwise least, so the sorted set is least at its
position, and the relabellings that reach it are exactly the orders inside
the refined cells; by induction the family is least.  The final cells are
the classes of elements with the same membership in every set, ordered by
membership read as a word with "present" before "absent", so one sort
computes them.

One presentation walk serves enumeration and witness checks: it grows a
family one set at a time and settles each prefix once.  The refinement of
a prefix is the start of the refinement of the family, so every prefix of
a canonical family is canonical, and the enumerator descends only into
a canonical prefix (orderly generation; Read 1978, McKay 1998), testing
each new set against the cells its parent prefix kept.  The witness check
descends only from a prefix without a sunflower copy, so a copy in a
longer prefix must pass through its newest vertex, and that is the only
place it looks, one meet class of older sets at a time.  It searches C
itself, with pools inside the prefix and the sunflower filter
`_centre_filter`.

The sampler and the witness searches hold k-sets as int bitmasks (bit g for
element g of a ground below k * |C|); a `Presentation` holds frozensets.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import Iterable, Iterator, Optional

from .partitionlab import Colouring
from .structures import (
    BudgetExceeded,
    CandidateFilter,
    Embedding,
    SignatureMismatch,
    Structure,
    _iter_embedding_maps,
    embedding_defect,
    vertex_mask,
)

DEFAULT_GROUND_BUDGET = 18


def sunflower_centre(sets: Iterable[frozenset]) -> Optional[frozenset]:
    """The set c with s & t == c for all distinct members, or None.

    Families with fewer than two sets have no pairwise condition to check;
    by convention the centre of a singleton family is the set itself and
    the centre of an empty family is empty.
    """
    family = [frozenset(s) for s in sets]
    if len(set(family)) != len(family):
        raise ValueError("family members must be pairwise distinct")
    if len(family) < 2:
        return family[0] if family else frozenset()
    centre = family[0] & family[1]
    for s, t in itertools.combinations(family, 2):
        if s & t != centre:
            return None
    return centre


class Presentation:
    """An injective assignment of k-sets of naturals to the vertices of a
    base structure."""

    __slots__ = ("base", "k", "sets", "_sorted")

    def __init__(self, base: Structure, k: int, sets: Iterable[Iterable[int]]):
        fam = tuple([frozenset(map(int, s)) for s in sets])
        if len(fam) != base.size:
            raise ValueError("one k-set per vertex required")
        if any(len(s) != k for s in fam):
            raise ValueError(f"every set must have exactly {k} elements")
        if len(set(fam)) != len(fam):
            raise ValueError("the k-sets must be pairwise distinct")
        srt = tuple(map(tuple, map(sorted, fam)))
        if k and any(t[0] < 0 for t in srt):
            raise ValueError("ground elements are naturals")
        self.base = base
        self.k = k
        self.sets = fam
        self._sorted = srt

    def __eq__(self, other):
        return (isinstance(other, Presentation) and self.base == other.base
                and self.k == other.k and self.sets == other.sets)

    def __repr__(self):
        return f"Presentation(k={self.k}, size={self.base.size})"


class SunflowerCert:
    """A verifiable sunflower copy: petal vertices of a presentation, the
    centre, and an embedding of the target onto the petal substructure."""

    __slots__ = ("petals", "centre", "iso")

    def __init__(self, petals: Iterable[int], centre: Iterable[int], iso: Embedding):
        self.petals = tuple(petals)
        self.centre = frozenset(centre)
        self.iso = iso

    @property
    def degenerate(self) -> bool:
        """Whether the copy has fewer than two petals, so that no pair of
        sets fixes its centre."""
        return len(self.petals) < 2

    def __repr__(self):
        return f"SunflowerCert(petals={self.petals}, centre={sorted(self.centre)})"


def _centre_filter(sets) -> CandidateFilter:
    """Kernel filter for sunflower images on k-sets given as int masks or as
    frozensets: a vertex joins a partial image of two or more only if its
    set meets every earlier one in the centre of the first two, so every
    complete image is a sunflower.

    Depth first, every deeper call shares `partial[0:2]` with the latest
    depth-2 call and reads its centre; `sets` may change between searches."""
    centre = None

    def flt(depth, v, partial):
        nonlocal centre
        if depth < 2:
            return True
        if depth == 2:
            centre = sets[partial[0]] & sets[partial[1]]
        s = sets[v]
        for u in partial:
            if sets[u] & s != centre:
                return False
        return True

    return flt


def find_sunflower_copies(P: Presentation, B: Structure,
                          limit: Optional[int] = None) -> list[SunflowerCert]:
    """Induced copies of B whose assigned k-sets form a sunflower, one
    certificate per petal vertex set, in deterministic search order."""
    if B.signature != P.base.signature:
        raise SignatureMismatch("target signature mismatch")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    sets = P.sets
    out = []
    seen = set()
    for vmap in _iter_embedding_maps(B, P.base, _centre_filter(sets)):
        image = frozenset(vmap)
        if image in seen:
            continue
        seen.add(image)
        centre = sets[vmap[0]] & sets[vmap[1]] if len(vmap) >= 2 else frozenset()
        out.append(SunflowerCert(vmap, centre, Embedding(B, P.base, vmap)))
        if limit is not None and len(out) >= limit:
            break
    return out


def verify_sunflower_cert(cert: SunflowerCert, B: Structure, P: Presentation) -> bool:
    """Re-check a certificate from scratch: pairwise intersections all equal
    the centre and the recorded map is an induced isomorphism onto the
    petal substructure."""
    petals = cert.petals
    if len(set(petals)) != len(petals):
        return False
    if any(not 0 <= v < P.base.size for v in petals):
        return False
    if len(petals) >= 2:
        for u, w in itertools.combinations(petals, 2):
            if P.sets[u] & P.sets[w] != cert.centre:
                return False
    else:
        if not all(cert.centre <= P.sets[v] for v in petals):
            return False
    if cert.iso.source != B or cert.iso.target != P.base:
        return False
    if tuple(cert.iso.map) != tuple(petals):
        return False
    return embedding_defect(B, P.base, cert.iso.map) is None


# ---------------------------------------------------------------------------
# Canonical enumeration of presentations


def canonical_sets(sets: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The canonical representative of a family of sets under ground
    bijections: the least first-appearance relabelling, which labels the
    ground elements in order of their membership words (see the module
    docstring).  Elements with equal words are interchangeable, so the
    order of the sort among them never shows in the result."""
    family = [frozenset(s) for s in sets]
    ground = sorted(set().union(*family),
                    key=lambda g: [g not in s for s in family])
    label = {g: i for i, g in enumerate(ground)}
    return tuple(tuple(sorted(label[g] for g in s)) for s in family)


def _refine_cells(cells: frozenset, s: tuple[int, ...]) -> Optional[frozenset]:
    """The cells of a canonical prefix extended by the normal-form set `s`,
    or None if that is not canonical.  A cell is given by its first label,
    and so is the next fresh label.  `s` must take the lowest labels of
    every cell it meets, so each run of consecutive labels in `s` starts a
    cell, and the cell where a run ends splits there."""
    if any(x not in cells and x - 1 not in s for x in s):
        return None
    return cells.union([x + 1 for x in s if x + 1 not in s])


def _normal_form_candidates(prev_sets: list[tuple[int, ...]], k: int,
                            next_label: int) -> list[tuple[int, ...]]:
    """All k-sets a further vertex may take in normal form: old labels plus
    a consecutive run of fresh ones, distinct from the earlier sets."""
    seen = set(map(frozenset, prev_sets))
    out = []
    for t in range(k + 1):
        fresh = tuple(range(next_label, next_label + t))
        for old in itertools.combinations(range(next_label), k - t):
            cand = old + fresh
            if frozenset(cand) not in seen:
                out.append(cand)
    out.sort()
    return out


def _normal_form_walk(C: Structure, k: int, keep, swaps) -> Iterator[list[tuple[int, ...]]]:
    """Every normal-form family of |C| k-sets, in lexicographic order, with
    every prefix accepted by `keep` and set i above set i-1 at each i in `swaps`.

    The walk appends sets depth first and calls `keep(sets)` as soon as a
    set is appended, descending only if it holds.  Each family is yielded
    as the walk's own list, which changes once the walk resumes.
    """
    sets: list[tuple[int, ...]] = []

    def rec(next_label: int) -> Iterator[list[tuple[int, ...]]]:
        if len(sets) == C.size:
            yield sets
            return
        cands = _normal_form_candidates(sets, k, next_label)
        for cand in cands[bisect.bisect(cands, sets[-1]) if len(sets) in swaps else 0:]:
            sets.append(cand)
            if keep(sets):
                yield from rec(max(next_label, cand[-1] + 1))
            sets.pop()

    return rec(0)


def canonical_families(C: Structure, k: int,
                       ground_budget: int = DEFAULT_GROUND_BUDGET,
                       ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The sorted k-sets of each canonical family of `enumerate_presentations`,
    as a tuple of sorted tuples, in walk order.  A bad k or a ground set
    over the budget raises when this is called.

    The canonical form of a prefix is the prefix of the canonical form, so
    a non-canonical prefix has no canonical family below it and the walk
    drops it; every leaf reached is canonical.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k * C.size > ground_budget:
        raise BudgetExceeded(f"ground set {k * C.size} exceeds budget {ground_budget}")
    cells = [frozenset([0])]

    def canonical(sets: list[tuple[int, ...]]) -> bool:
        cells[len(sets):] = [_refine_cells(cells[len(sets) - 1], sets[-1])]
        return cells[-1] is not None

    return map(tuple, _normal_form_walk(C, k, canonical, ()))


def enumerate_presentations(C: Structure, k: int,
                            ground_budget: int = DEFAULT_GROUND_BUDGET,
                            ) -> Iterator[Presentation]:
    """All presentations of C on k-sets up to ground bijections, exactly
    once: the stream yields canonical representatives only, lazily, one
    per family of `canonical_families`.  A bad k or a ground set over the
    budget raises on the first `next`."""
    for sets in canonical_families(C, k, ground_budget):
        yield Presentation(C, k, sets)


def _sample_sets(size: int, k: int, rng: random.Random) -> Iterator[tuple[int, ...]]:
    """The families of successive `random_presentation` calls on `rng`, each
    as int masks in draw order.  The set-up runs once; a family's draws are
    made when it is read, so `rng` is left as those calls leave it."""
    ground = max(k * size, k)
    pooled = ground <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    bits = rng.getrandbits
    draws = [(n, n.bit_length()) for n in range(ground, ground - k, -1)]
    full = list(range(ground)) if pooled else None
    while True:
        chosen: dict[int, None] = {}
        while len(chosen) < size:
            m = 0
            if pooled:  # sample's pool: a drawn slot is refilled from the end
                pool = full[:]
                for n, b in draws:
                    j = bits(b)
                    while j >= n:
                        j = bits(b)
                    m |= 1 << pool[j]
                    pool[j] = pool[n - 1]
            else:  # sample's rejection method: redraw until k distinct
                b = draws[0][1]
                while m.bit_count() < k:
                    j = bits(b)
                    if j < ground:
                        m |= 1 << j
            chosen[m] = None
        yield tuple(chosen)


def _members(mask: int) -> Iterator[int]:
    """The elements of a set given as an int mask, in increasing order."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def random_presentation(C: Structure, k: int, rng: random.Random) -> Presentation:
    """A uniformly random assignment of distinct k-subsets of a ground set
    of k * |C| naturals (every intersection pattern is reachable): the
    first family of a fresh `_sample_sets` on `rng`.  Each set makes
    CPython 3.11's `rng.sample(range(ground), k)` draws, each
    `randrange(n)` as `getrandbits(n.bit_length())` until below n, so a
    seed gives the same sets and `rng` state as a call of `sample` did."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Presentation(C, k, map(_members, next(_sample_sets(C.size, k, rng))))


# ---------------------------------------------------------------------------
# Witness verification


class WitnessVerdict:
    __slots__ = ("passed", "counterexample", "checked")

    def __init__(self, passed, counterexample, checked):
        self.passed = passed
        self.counterexample = counterexample
        self.checked = checked

    def __repr__(self):
        verdict = "pass" if self.passed else "counterexample"
        return f"WitnessVerdict({verdict}, checked={self.checked})"


def verify_witness(C: Structure, B: Structure, k: int,
                   ground_budget: int = DEFAULT_GROUND_BUDGET) -> WitnessVerdict:
    """Decide whether every presentation of C on k-sets contains a sunflower
    copy of B.

    Exhaustive mode walks the normal-form generation tree and prunes any
    prefix that already contains a sunflower copy (every completion then
    does too); a leaf is a counterexample presentation.  Because the walk
    only extends a sunflower-free prefix, a copy in a new prefix must use
    its newest vertex: one B-depth per Aut(B) orbit in turn is pinned to
    that vertex and the others range over one meet class of older vertices,
    those whose sets meet the newest set in the same Y, which is then the
    copy's centre.  Each class with |B| - 1 members or more gets its own
    pinned searches in C itself: every pool lies inside the prefix, and an
    induced copy there is one in the prefix.  Pairs inside a class are
    checked by `_centre_filter` only when |B| > 2 and |Y| < k - 1; with
    the newest vertex pinned, Y is the only centre it can accept.  A
    target with no vertices has a copy in every presentation, the empty
    one included, so the walk stops at its one root candidate.

    The walk also keeps sets i, i+1 in order where swapping vertices i
    and i+1 is an automorphism of C: it appends at i+1 only a set above
    set i.  This keeps the verdict and the counterexample, the first leaf
    X of the unpruned walk: were X's sets i, i+1 out of order at such a swap,
    swapping them and relabelling by first appearance would give another
    counterexample that agrees with X before i and whose set i is
    pointwise at most X's set i+1, which is below X's set i; it would come
    before X.  So X obeys the rule and stays the first leaf, and only
    `checked`, the number of prefix families the pruned walk settles,
    falls.
    """
    if B.signature != C.signature:
        raise SignatureMismatch("witness check needs matching signatures")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k * C.size > ground_budget:
        raise BudgetExceeded(f"ground set {k * C.size} exceeds budget {ground_budget}")
    if B.size == 0:
        return WitnessVerdict(True, None, 1)

    members: list[int] = []
    # A copy f with the newest vertex at depth d and an automorphism s of B
    # give the copy f . s^-1, with the same image and that vertex at s(d);
    # the searches read only the image, so only the least depth of each
    # Aut(B) orbit is pinned: one that no embedding of B in itself (an
    # automorphism) sends lower.
    depths = range(B.size)
    pins = [d for d in depths if next(_iter_embedding_maps(
        B, B, None, [(1 << d) - 1 if e == d else -1 for e in depths]), None) is None]
    swaps = {i for i in range(1, C.size) if embedding_defect(
        C, C, (*range(i - 1), i, i - 1, *range(i + 1, C.size))) is None}
    checked = 0

    def sunflower_free(sets: list[tuple[int, ...]]) -> bool:
        nonlocal checked
        checked += 1
        i = len(sets)
        new = vertex_mask(sets[-1])
        members[i - 1:] = [new]
        if B.size == 1:  # a copy is the newest vertex alone
            classes = {new: ()}
        else:
            classes = {}
            for u in range(i - 1):
                classes.setdefault(members[u] & new, []).append(u)
        for centre, pool in classes.items():
            if len(pool) < B.size - 1:
                continue
            # only pairs inside the pool can miss the centre, and distinct
            # k-sets through a (k-1)-set meet in exactly that set
            flt = None if B.size <= 2 or centre.bit_count() == k - 1 else _centre_filter(members)
            mask = vertex_mask(pool)
            for d in pins:
                pools = [1 << (i - 1) if e == d else mask for e in depths]
                if next(_iter_embedding_maps(B, C, flt, pools), None) is not None:
                    return False
        return True

    leaf = next(_normal_form_walk(C, k, sunflower_free, swaps), None)
    if leaf is None:
        return WitnessVerdict(True, None, checked)
    return WitnessVerdict(False, Presentation(C, k, leaf), checked + 1)


def refute_witness(C: Structure, B: Structure, k: int, trials: int,
                   seed: int) -> tuple[Optional[Presentation], int]:
    """The first of `trials` sampled presentations of C on k-sets with no
    sunflower copy of B and the number of samples drawn up to it, or
    (None, trials): a sampler can refute C as a witness but never confirm
    it.  The samples are one running `_sample_sets` on `verify-witness|{seed}`."""
    if B.signature != C.signature:
        raise SignatureMismatch("witness check needs matching signatures")
    if k < 1:
        raise ValueError("k must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    samples = _sample_sets(C.size, k, random.Random(f"verify-witness|{seed}"))
    sets: list[int] = []
    flt = _centre_filter(sets)
    for i, sample in zip(range(trials), samples):
        sets[:] = sample
        if next(_iter_embedding_maps(B, C, flt), None) is None:
            return Presentation(C, k, map(_members, sample)), i + 1
    return None, trials


# ---------------------------------------------------------------------------
# Encoding a colouring as a structure on 2-sets


def encode_colouring(M: Structure, chi: Colouring) -> Presentation:
    """Send vertex v to the 2-set {vertex code of v, colour code of chi(v)}.

    Vertex codes are even, colour codes odd, so the two namespaces never
    meet: a subset's sets share exactly a colour code iff it was
    monochromatic, and are pairwise disjoint iff it was heterochromatic.
    """
    if len(chi) != M.size:
        raise ValueError("colouring does not fit the structure")
    sets = [(2 * v, 2 * chi(v) + 1) for v in range(M.size)]
    return Presentation(M, 2, sets)
