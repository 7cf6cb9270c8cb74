"""Finite relational structures and the searches everything else is built on.

A Structure is a finite relational structure over an explicit signature:
vertices are 0..size-1 and each relation holds an explicit set of tuples.
No symmetry closure is implied; a graph stores both orientations of every
edge, a 3-hypergraph stores all six orderings of every hyperedge.

On top of the data model this module provides Gaifman graphs and
irreducibility, backtracking search for induced embeddings and
isomorphisms, free amalgams, membership in classes given by forbidden
irreducible substructures, quantifier-free 1-types over a parameter
sequence, and an exhaustive checker for the disjoint 3-amalgamation
property over the empty base.

All values are immutable after construction and safe to share: a structure
grown from another shares the relation frozensets it does not add to, and
equality compares those frozensets, whose hashes are computed on first use.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Iterator, Optional, Sequence


class SignatureMismatch(ValueError):
    """Two structures that should share a signature do not."""


class MalformedEmbedding(ValueError):
    """A vertex map that is not an induced embedding."""


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration was asked to exceed its configured budget."""


class Signature:
    """An ordered sequence of (relation name, arity) pairs.

    Names must be unique and arities >= 1.  The empty signature (pure
    sets) is permitted.
    """

    __slots__ = ("relations", "_arity")

    def __init__(self, relations: Iterable[tuple[str, int]] = ()):
        rels = tuple((str(n), int(a)) for n, a in relations)
        names = [n for n, _ in rels]
        if len(set(names)) != len(names):
            raise ValueError("relation names must be unique")
        for n, a in rels:
            if a < 1:
                raise ValueError(f"arity of {n!r} must be >= 1")
        self.relations = rels
        self._arity = dict(rels)

    def arity(self, name: str) -> int:
        return self._arity[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.relations)

    def __eq__(self, other):
        return isinstance(other, Signature) and self.relations == other.relations

    def __hash__(self):
        return hash(self.relations)

    def __repr__(self):
        return f"Signature({list(self.relations)!r})"


class Structure:
    """A finite relational structure: vertices 0..size-1 plus relation tuples.

    `relations` maps each relation name to a set of tuples; absent names
    get the empty set.  `meta` is a free-form dict carried along for
    provenance (generator id, seed, labels, ...) and is excluded from
    equality and hashing.  Equality compares relation frozensets, which
    `_grown` shares, and the hash is built from theirs on first use.
    """

    __slots__ = ("signature", "size", "relations", "meta",
                 "_hash", "_adj", "_canon", "_src")

    def __init__(self, signature: Signature, size: int,
                 relations: Optional[dict] = None, meta: Optional[dict] = None):
        if size < 0:
            raise ValueError("size must be >= 0")
        rels: dict[str, frozenset] = {}
        given = dict(relations or {})
        for name, arity in signature.relations:
            tuples = frozenset(tuple(int(x) for x in t) for t in given.pop(name, ()))
            _check_tuples(name, arity, tuples, size)
            rels[name] = tuples
        if given:
            raise ValueError(f"tuples for undeclared relations: {sorted(given)}")
        self.signature = signature
        self.size = size
        self.relations = rels
        self.meta = dict(meta) if meta else {}
        self._hash = self._adj = self._canon = self._src = None

    def _grown(self, size: int, added: Iterable[tuple] = ()) -> "Structure":
        """This structure on `size` >= self.size vertices plus the (relation,
        tuple) pairs `added`, with no meta, checking only those; untouched
        relations share its frozensets, and a built Gaifman view extends."""
        extra: dict = {}
        for name, t in added:
            extra.setdefault(name, []).append(t)
        T = Structure.__new__(Structure)
        T.signature, T.size, T.meta, T.relations = self.signature, size, {}, dict(self.relations)
        T._hash = T._adj = T._canon = T._src = None
        for name, ts in extra.items():
            _check_tuples(name, self.signature.arity(name), ts, size)
            T.relations[name] = T.relations[name].union(ts)
        if self._adj is not None:
            pad = [0] * (size - self.size)
            T._adj = _with_tuples((self._adj[0] + pad, self._adj[1] + pad),
                                  itertools.chain.from_iterable(extra.values()))
        return T

    @property
    def vertices(self) -> range:
        return range(self.size)

    def induced(self, vertices: Iterable[int]) -> "Structure":
        """Induced substructure; new vertex i is the i-th entry of `vertices`."""
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("vertex list must not repeat")
        pos = {v: i for i, v in enumerate(vs)}
        keep = set(vs)
        rels = {}
        for name in self.signature.names:
            rels[name] = [tuple(pos[x] for x in t)
                          for t in self.relations[name] if set(t) <= keep]
        return Structure(self.signature, len(vs), rels)

    def with_meta(self, **meta) -> "Structure":
        T = self._grown(self.size)
        T.meta = {**self.meta, **meta}
        return T

    def __eq__(self, other):
        return (isinstance(other, Structure) and self.size == other.size
                and self.relations == other.relations and self.signature == other.signature)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.size, frozenset(self.relations.items())))
        return self._hash

    def __repr__(self):
        counts = {n: len(ts) for n, ts in self.relations.items() if ts}
        return f"Structure(size={self.size}, tuples={counts})"


def _check_tuples(name: str, arity: int, tuples: Iterable[tuple], size: int) -> None:
    for t in tuples:
        if len(t) != arity:
            raise ValueError(f"tuple {t} has wrong length for {name!r}/{arity}")
        if any(x < 0 or x >= size for x in t):
            raise ValueError(f"tuple {t} of {name!r} out of range 0..{size - 1}")


class Embedding:
    """An injective vertex map carrying one structure into another, induced:
    a tuple holds on the image iff it holds on the source."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: Structure, target: Structure,
                 vertex_map: Iterable[int], validate: bool = True):
        self.source = source
        self.target = target
        self.map = tuple(int(x) for x in vertex_map)
        if validate:
            problem = embedding_defect(source, target, self.map)
            if problem:
                raise MalformedEmbedding(problem)

    def __call__(self, v: int) -> int:
        return self.map[v]

    def __eq__(self, other):
        return (isinstance(other, Embedding) and self.map == other.map
                and self.source == other.source and self.target == other.target)

    def __hash__(self):
        return hash((self.map, self.source, self.target))

    def __repr__(self):
        return f"Embedding({self.map})"


def embedding_defect(A: Structure, B: Structure, vmap: tuple[int, ...]) -> Optional[str]:
    """Return a description of why vmap is not an induced embedding, or None."""
    if A.signature != B.signature:
        return "signature mismatch"
    if len(vmap) != A.size:
        return "map length differs from source size"
    if any(x < 0 or x >= B.size for x in vmap):
        return "image vertex out of range"
    if len(set(vmap)) != len(vmap):
        return "map not injective"
    image = set(vmap)
    inv = {x: i for i, x in enumerate(vmap)}
    for name in A.signature.names:
        bt = B.relations[name]
        for t in A.relations[name]:
            if tuple(vmap[x] for x in t) not in bt:
                return f"tuple {t} of {name!r} not preserved"
        at = A.relations[name]
        for t in bt:
            if set(t) <= image and tuple(inv[x] for x in t) not in at:
                return f"tuple {t} of {name!r} not reflected"
    return None


# ---------------------------------------------------------------------------
# Gaifman graphs and irreducibility


def _adjacency_bits(S: Structure) -> tuple[list[int], list[int]]:
    """Per vertex, the bitmask of its Gaifman neighbours and of the
    vertices it shares a tuple with whose support is exactly the pair
    (cached: the one Gaifman view of a structure)."""
    if S._adj is None:
        S._adj = _with_tuples(([0] * S.size, [0] * S.size),
                              itertools.chain.from_iterable(S.relations.values()))
    return S._adj


def _with_tuples(adj: tuple[list[int], list[int]], tuples: Iterable[tuple]) -> tuple:
    """The Gaifman view `adj`, updated in place with the tuples' adjacencies."""
    bits, pair_bits = adj
    for t in tuples:
        sup = set(t)
        for u, v in itertools.permutations(sup, 2):
            bits[u] |= 1 << v
            if len(sup) == 2:
                pair_bits[u] |= 1 << v
    return adj


def gaifman(S: Structure) -> frozenset:
    """The Gaifman graph as a set of 2-element frozensets of vertices."""
    bits = _adjacency_bits(S)[0]
    return frozenset(frozenset((u, v)) for v in S.vertices for u in range(v)
                     if bits[v] >> u & 1)


def is_irreducible(S: Structure) -> bool:
    """True iff the Gaifman graph is a clique (size <= 1 counts)."""
    bits = _adjacency_bits(S)[0]
    full = (1 << S.size) - 1
    return all(bits[v] | 1 << v == full for v in S.vertices)


# ---------------------------------------------------------------------------
# Induced embedding search

CandidateFilter = Callable[[int, int, list[int]], bool]


def _slots(sig: Signature, size: int, keep: Callable[[tuple], bool]) -> list[tuple]:
    """The sorted (relation, tuple) pairs over vertices 0..size-1 whose tuple
    `keep` accepts."""
    return sorted((name, t) for name, arity in sig.relations
                  for t in itertools.product(range(size), repeat=arity) if keep(t))


@functools.cache
def _atoms_through(sig: Signature, n: int) -> tuple[tuple, ...]:
    """The sorted (relation, tuple) atoms over vertices 0..n that mention n."""
    return tuple(_slots(sig, n + 1, lambda t: n in t))


def _diagram(S: Structure, at: Sequence[int]) -> frozenset:
    """The (relation, tuple) atoms over positions 0..len(at)-1 that hold on `at`."""
    return frozenset((n, p) for j in range(len(at)) for n, p in _atoms_through(S.signature, j)
                     if tuple(at[x] for x in p) in S.relations[n])


def _iter_embedding_maps(A: Structure, B: Structure,
                         candidate_filter: Optional[CandidateFilter] = None,
                         candidates: Optional[list[Iterable[int]]] = None,
                         ) -> Iterator[tuple[int, ...]]:
    """Backtracking search for induced embeddings of A in B.

    Yields image tuples in lexicographic order.  A-vertices are mapped in
    index order; `candidate_filter(depth, v, partial)` may veto target
    vertex v for A-vertex `depth` given the partial image list, and
    `candidates[depth]` may restrict the pool outright (in any order: the
    pool becomes a bitmask, always scanned in ascending order).

    Candidates are pruned by bitmask: the image of an A-neighbour in the
    Gaifman graph must be a B-neighbour, and if A-vertices u < d share no
    tuple whose support is exactly {u, d}, neither may their images, since
    such a tuple of B would lie inside the image.  (A tuple of
    arity 3 or more can join two image vertices through a vertex outside
    the image, so Gaifman non-adjacency is not transported.)  Each
    remaining candidate gets one test, the VF2-style check of the new pair
    against the vertices already mapped (Cordella et al. 2004): every atom
    over A-vertices 0..d that mentions d holds in A iff it holds on the
    image.
    """
    if A.signature != B.signature:
        raise SignatureMismatch("embedding search needs matching signatures")
    nA = A.size
    if nA == 0:
        yield ()
        return
    if nA > B.size:
        return

    if A._src is None:
        # per depth d: the atoms through d with their truth in A, the
        # earlier Gaifman neighbours and the earlier non-pair-neighbours
        bits_a, pair_a = _adjacency_bits(A)
        A._src = [([(name, p, p in A.relations[name])
                    for name, p in _atoms_through(A.signature, d)],
                   [u for u in range(d) if bits_a[d] >> u & 1],
                   [u for u in range(d) if not pair_a[d] >> u & 1])
                  for d in range(nA)]
    src = A._src

    adj_bits, pair_bits = _adjacency_bits(B)
    full_mask = (1 << B.size) - 1
    pool_masks = None
    if candidates is not None:
        pool_masks = []
        for pool in candidates:
            if pool is None:
                pool_masks.append(None)
                continue
            m = 0
            for v in pool:
                m |= 1 << v
            pool_masks.append(m)

    partial: list[int] = []
    b_rel = B.relations

    def consistent(atoms: list, v: int) -> bool:
        trial = partial + [v]
        for name, p, held in atoms:
            if len(p) == 2:
                mapped = (trial[p[0]], trial[p[1]])
            elif len(p) == 3:
                mapped = (trial[p[0]], trial[p[1]], trial[p[2]])
            else:
                mapped = tuple(trial[x] for x in p)
            if (mapped in b_rel[name]) != held:
                return False
        return True

    def rec(depth: int, used_mask: int) -> Iterator[tuple[int, ...]]:
        if depth == nA:
            yield tuple(partial)
            return
        atoms, nbrs, non_pairs = src[depth]
        m = full_mask & ~used_mask
        if pool_masks is not None and pool_masks[depth] is not None:
            m &= pool_masks[depth]
        for u in nbrs:
            m &= adj_bits[partial[u]]
        for u in non_pairs:
            m &= ~pair_bits[partial[u]]
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


def find_embeddings(A: Structure, B: Structure,
                    limit: Optional[int] = None) -> list[Embedding]:
    """All induced embeddings of A into B, lexicographic on the image
    sequence, truncated at `limit` (None means unlimited)."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    return [Embedding(A, B, vmap, validate=False)
            for vmap in itertools.islice(_iter_embedding_maps(A, B), limit)]


def embeds(A: Structure, B: Structure) -> bool:
    return bool(find_embeddings(A, B, limit=1))


def _vertex_profiles(S: Structure) -> list[tuple]:
    """Per vertex, per relation, the number of tuples holding the vertex at
    each position, counted in one pass over the tuples."""
    counts = [[[0] * arity for _, arity in S.signature.relations] for _ in S.vertices]
    for r, (name, _) in enumerate(S.signature.relations):
        for t in S.relations[name]:
            for i, x in enumerate(t):
                counts[x][r][i] += 1
    return [tuple(map(tuple, per_relation)) for per_relation in counts]


def are_isomorphic(A: Structure, B: Structure) -> Optional[Embedding]:
    """A bijective induced embedding A -> B if one exists, else None.

    Deterministic: returns the lexicographically least isomorphism (on the
    image sequence), so the identity when A == B.  Degree-profile
    refinement prunes the search.
    """
    if A.signature != B.signature:
        raise SignatureMismatch("isomorphism test needs matching signatures")
    if A == B:
        return Embedding(A, B, range(A.size), validate=False)
    if A.size != B.size:
        return None
    for name in A.signature.names:
        if len(A.relations[name]) != len(B.relations[name]):
            return None
    prof_a, prof_b = _vertex_profiles(A), _vertex_profiles(B)
    if sorted(prof_a) != sorted(prof_b):
        return None
    pools = _profile_pools(prof_a, prof_b)
    for vmap in _iter_embedding_maps(A, B, candidates=pools):
        return Embedding(A, B, vmap, validate=False)
    return None


def _profile_pools(prof_a: list, prof_b: list) -> list[list[int]]:
    """Per source vertex, the sorted target vertices sharing its profile."""
    by_profile: dict = {}
    for v, prof in enumerate(prof_b):
        by_profile.setdefault(prof, []).append(v)
    return [by_profile[prof] for prof in prof_a]


def colour_classes(vertices: Iterable[int], colour: Sequence[int],
                   min_size: int) -> list[list[int]]:
    """The vertices grouped by their colours `colour[v]`, each class
    ascending and the classes in order of their least vertex, dropping
    classes with fewer than `min_size` members.

    A copy is monochromatic iff it lies inside one class, so searching each
    class through candidate pools finds exactly the copies a same-colour
    candidate filter would pass, without calling it on every candidate.
    """
    classes: dict = {}
    for v in sorted(vertices):
        classes.setdefault(colour[v], []).append(v)
    return [c for c in classes.values() if len(c) >= min_size]


def automorphisms(S: Structure) -> list[Embedding]:
    """All automorphisms (useful for small dedup work only)."""
    prof = _vertex_profiles(S)
    pools = _profile_pools(prof, prof)
    return [Embedding(S, S, m, validate=False)
            for m in _iter_embedding_maps(S, S, candidates=pools)]


_CANON_MAX = 9


def canonical_form(S: Structure) -> tuple:
    """A relabelling-invariant certificate: the minimum, over all vertex
    bijections to 0..n-1, of the sorted relabelled tuple sets.

    Brute force over permutations; guarded at 9 vertices (this package
    never needs canonical forms of larger structures).
    """
    if S._canon is not None:
        return S._canon
    if S.size > _CANON_MAX:
        raise BudgetExceeded(f"canonical_form limited to {_CANON_MAX} vertices")
    names = S.signature.names
    best = None
    for perm in itertools.permutations(range(S.size)):
        cert = tuple(tuple(sorted(tuple(perm[x] for x in t) for t in S.relations[n]))
                     for n in names)
        if best is None or cert < best:
            best = cert
    S._canon = (S.signature.relations, S.size, best)
    return S._canon


# ---------------------------------------------------------------------------
# Free amalgams


def free_amalgam(A: Structure, f0: Embedding, f1: Embedding) -> Structure:
    """The free amalgam of f0 : A -> B0 and f1 : A -> B1.

    The result keeps B0's vertex labels; vertices of B1 outside the image
    of f1 are appended in ascending order.  Relations are exactly the two
    transported relation sets, nothing more.
    """
    if f0.source != A or f1.source != A:
        raise MalformedEmbedding("both embeddings must have source A")
    B0, B1 = f0.target, f1.target
    if B0.signature != A.signature or B1.signature != A.signature:
        raise SignatureMismatch("amalgam needs one common signature")
    inv1 = {f1.map[a]: a for a in range(A.size)}
    to_c = {}
    fresh = B0.size
    for v in range(B1.size):
        if v in inv1:
            to_c[v] = f0.map[inv1[v]]
        else:
            to_c[v] = fresh
            fresh += 1
    return B0._grown(fresh, [(name, tuple(to_c[x] for x in t))
                             for name, ts in B1.relations.items() for t in ts])


# ---------------------------------------------------------------------------
# Classes given by forbidden irreducible substructures


class ClassSpec:
    """A hereditary class: all finite structures over `signature` into
    which no member of `forbidden` embeds (induced).

    Every forbidden member must be irreducible; this is what makes the
    class closed under free amalgams, and construction rejects violations.
    """

    __slots__ = ("signature", "forbidden", "name", "_tests")

    def __init__(self, signature: Signature, forbidden: Iterable[Structure] = (),
                 name: str = ""):
        forb = tuple(forbidden)
        for F in forb:
            if F.signature != signature:
                raise SignatureMismatch("forbidden structure signature mismatch")
            if F.size == 0:
                raise ValueError("forbidden structures must have a vertex")
            if not is_irreducible(F):
                raise ValueError("forbidden structures must be irreducible")
        self.signature = signature
        self.forbidden = forb
        self.name = name
        self._tests = None

    def __eq__(self, other):
        return (isinstance(other, ClassSpec)
                and self.signature == other.signature
                and set(self.forbidden) == set(other.forbidden))

    def __hash__(self):
        return hash((self.signature, frozenset(self.forbidden)))

    def __repr__(self):
        label = self.name or f"{len(self.forbidden)} forbidden"
        return f"ClassSpec({label})"


def satisfies_class(S: Structure, K: ClassSpec) -> bool:
    """True iff no forbidden member of K embeds (induced) into S."""
    if S.signature != K.signature:
        raise SignatureMismatch("structure/class signature mismatch")
    return not any(embeds(F, S) for F in K.forbidden)


def satisfies_class_at(S: Structure, K: ClassSpec, v: int) -> bool:
    """Like satisfies_class but only checks embeddings whose image contains
    vertex v.  Sound for incremental use: if S minus its tuples through v
    was in K, this decides membership of S."""
    if S.signature != K.signature:
        raise SignatureMismatch("structure/class signature mismatch")
    for F in K.forbidden:
        for anchor in range(F.size):
            pools = [None] * F.size
            pools[anchor] = [v]
            for _ in _iter_embedding_maps(F, S, candidates=pools):
                return False
    return True


# ---------------------------------------------------------------------------
# Quantifier-free 1-types


class QfType:
    """The quantifier-free type of a new point over an ordered parameter
    sequence: a complete truth assignment to every atom pattern.

    A pattern's entries are -1 for the new point and j >= 0 for the j-th
    parameter, and it mentions the new point.  Only the positive atoms are
    stored; the atom universe is determined by the signature and the
    parameter count.  Equality atoms are excluded (the new point is
    distinct from all parameters by convention).
    """

    __slots__ = ("parameters", "positives")

    def __init__(self, parameters: Iterable[int], positives: Iterable[tuple]):
        self.parameters = tuple(int(x) for x in parameters)
        self.positives = frozenset((str(n), tuple(p)) for n, p in positives)
        for _, pat in self.positives:
            if -1 not in pat:
                raise ValueError("type atom must mention the new point")
            if any(j >= len(self.parameters) for j in pat):
                raise ValueError("type atom references a missing parameter")

    @property
    def nparams(self) -> int:
        return len(self.parameters)

    def check_signature(self, sig: Signature) -> None:
        """Raise ValueError unless each atom is a relation of sig at its arity."""
        for name, pat in sorted(self.positives):
            if sig._arity.get(name) != len(pat):
                raise ValueError(f"type atom {name}{list(pat)} does not fit the signature")

    def transport(self, f: "Embedding | dict | list") -> "QfType":
        """The type with parameters pushed through an embedding or map."""
        mapping = f.map if isinstance(f, Embedding) else f
        return QfType([mapping[a] for a in self.parameters], self.positives)

    def __eq__(self, other):
        return (isinstance(other, QfType)
                and self.parameters == other.parameters
                and self.positives == other.positives)

    def __hash__(self):
        return hash((self.parameters, self.positives))

    def __repr__(self):
        return f"QfType(params={self.parameters}, positives={sorted(self.positives)})"


def qf_type(S: Structure, v: int, params: Iterable[int]) -> QfType:
    """The complete atomic diagram of v over the parameter sequence."""
    A = tuple(params)
    if v in A:
        raise ValueError("the new point must not be a parameter")
    if any(a < 0 or a >= S.size for a in A) or v < 0 or v >= S.size:
        raise ValueError("vertex out of range")
    return QfType(A, _positives(S, A + (v,)))


def _positives(S: Structure, at: tuple) -> frozenset:
    """The positive atoms of the type of at[-1] over at[:-1]: the atoms
    through vertex n = |at| - 1 over 0..n that hold on `at`, with n
    standing for the point as -1."""
    n = len(at) - 1
    return frozenset((name, tuple(-1 if j == n else j for j in t))
                     for name, t in _atoms_through(S.signature, n)
                     if tuple(at[j] for j in t) in S.relations[name])


def _own_types(S: Structure) -> dict[int, frozenset]:
    """Each vertex's type over the empty base, read from its loop tuples
    (those whose support is itself); a vertex with none is left out."""
    own: dict = {}
    for name, arity in S.signature.relations:
        for t in S.relations[name]:
            if t.count(t[0]) == arity:
                own[t[0]] = own.get(t[0], frozenset()) | {(name, (-1,) * arity)}
    return own


def _types_over(S: Structure, A: tuple, own: dict) -> Iterator[tuple[int, frozenset]]:
    """(v, the positives of v's type over A) for each v outside A, ascending.

    Only the Gaifman neighbours of A have their atoms over it read; any
    other vertex shares no tuple with A, so its type is its own type over
    the empty base, `own` as _own_types gives it."""
    bits = _adjacency_bits(S)[0]
    near = params_mask = 0
    for a in A:
        near |= bits[a]
        params_mask |= 1 << a
    for v in S.vertices:
        if not params_mask >> v & 1:
            yield v, _positives(S, A + (v,)) if near >> v & 1 else own.get(v, frozenset())


def _type_classes(S: Structure, params: Sequence[int],
                  own: Optional[dict] = None) -> dict[frozenset, list[int]]:
    """The vertices outside the parameters grouped by their type over them:
    each realised type's positives map to its ascending realisations.

    Per structure this reads the empty-base types (`own`, computed here
    unless given); per base, the atoms over it of its Gaifman neighbours."""
    A = tuple(params)
    if any(a < 0 or a >= S.size for a in A):
        raise ValueError("vertex out of range")
    classes: dict = {}
    for v, key in _types_over(S, A, _own_types(S) if own is None else own):
        classes.setdefault(key, []).append(v)
    return classes


def realisation_set(S: Structure, params: Iterable[int], p: QfType) -> list[int]:
    """All v outside the parameters whose type over them equals p, ascending."""
    A = tuple(params)
    if len(A) != p.nparams:
        raise ValueError("parameter count differs from the type's")
    p.check_signature(S.signature)
    return _type_classes(S, A).get(p.positives, [])


# ---------------------------------------------------------------------------
# Completions in a class and class members up to isomorphism


# A cap on each class's cache of window options.  A catalog class fills 2-3
# entries over 16 seeds of its gen --klass job; the cap stays as one entry
# lists up to 2^|group| subsets, 16,384 at a pair support of a 4-ary relation.
_WINDOW_MEMO = 1 << 12


def _class_tests(K: ClassSpec) -> tuple:
    """K's incremental tests, built once: each forbidden F, with its counts
    of vertices and of tuples per relation, filed by relation and pattern
    of repeated entries of its tuples not spanning F, F's pins on first use
    (_orbit_pins), a support's options per window frame, cached
    (_window_options), and whether K admits the bare point.  The memos live
    as long as K."""
    if K._tests is None:
        width = max((a for _, a in K.signature.relations), default=0)
        small = {canonical_form(F) for F in K.forbidden if F.size <= width}
        wide: dict = {}
        for F in K.forbidden:
            need = (F.size, *(len(F.relations[n]) for n in K.signature.names))
            for key in {(n, tuple(map(t.index, t))) for n, ts in F.relations.items()
                        for t in ts if len(set(t)) < F.size}:
                wide.setdefault(key, []).append((F, need))
        window = functools.partial(_window_options, K.signature, small)
        K._tests = (wide, functools.cache(_orbit_pins), functools.lru_cache(_WINDOW_MEMO)(window),
                    satisfies_class(Structure(K.signature, 1), K))
    return K._tests


def _orbit_pins(F: Structure) -> dict:
    """F's tuples not spanning F, one per Aut(F) orbit (its least image),
    filed like F in _class_tests: if an embedding e puts tF on t, then e
    composed with the inverse of an automorphism s puts s(tF) on t."""
    auts = [s.map for s in automorphisms(F)]
    pins: dict = {}
    for n, t in sorted({(n, min(tuple(s[x] for x in t) for s in auts))
                        for n, ts in F.relations.items() for t in ts if len(set(t)) < F.size}):
        pins.setdefault((n, tuple(map(t.index, t))), []).append(t)
    return pins


def _window_options(sig: Signature, small: set, frame: frozenset, group: tuple) -> tuple:
    """The index subsets of `group`, atoms spanning positions 0..m-1, whose
    window (those positions with the atoms of `frame` and of the subset) has
    no induced substructure in `small`, by size, then lexicographically.  The
    empty subset passes; the proper sub-windows hold no atom of the group."""
    m = len(set(group[0][1]))
    W = Structure(sig, m)._grown(m, frame)
    if any(canonical_form(W.induced(sub)) in small
           for r in range(1, m) for sub in itertools.combinations(range(m), r)):
        return ((),)
    return tuple(idx for r in range(len(group) + 1)
                 for idx in itertools.combinations(range(len(group)), r)
                 if not idx or canonical_form(W._grown(m, [group[i] for i in idx])) not in small)


def _by_support(free: Iterable[tuple]) -> list[tuple[tuple, list]]:
    """(support, pairs) for the (relation, tuple) pairs `free` by support, the
    sorted set of vertices a tuple mentions: smaller first, ties by support."""
    groups: dict = {}
    for name, t in free:
        groups.setdefault(tuple(sorted(set(t))), []).append((name, t))
    return sorted(groups.items(), key=lambda g: (len(g[0]), g[0]))


def _completions(S: Structure, free: Sequence[tuple],
                 K: ClassSpec) -> Iterator[tuple[tuple, Structure]]:
    """(chosen, T) for each subset `chosen` of the (relation, tuple) pairs
    `free` whose completion T, S plus the chosen tuples, has no forbidden
    copy through a chosen tuple.  Each completion dropped is outside K, and
    if S is in K, those yielded are exactly the completions in K.

    The tuples are decided support by support in the order of _by_support,
    each support's subsets by size, then lexicographically in the order of
    `free`; with one support, that is the order of all subsets, which is
    how generators.gen_generic samples a new vertex one support at a time.

    A copy of a forbidden F that S lacks holds a chosen tuple, the image of
    a tuple of F.  If that tuple spans F, the copy lies in the window of T
    on the tuple's support, which is final once its support is decided.
    So a support's options are listed once per frame, the atoms of S and
    of the earlier chosen tuples on the support (_window_options).  Every
    other copy is searched in each complete T with a tuple of F not
    spanning F pinned on a chosen tuple."""
    window = _class_tests(K)[2]
    supports = _by_support(free)

    def walk(i: int, chosen: tuple) -> Iterator[tuple[tuple, Structure]]:
        if i < len(supports):
            sup, group = supports[i]
            pos = {x: j for j, x in enumerate(sup)}
            frame = _diagram(S, sup) | {(n, tuple(pos[x] for x in t))
                                        for n, t in chosen if pos.keys() >= set(t)}
            for idx in window(frame, tuple((n, tuple(pos[x] for x in t)) for n, t in group)):
                yield from walk(i + 1, chosen + tuple(group[j] for j in idx))
        elif not chosen:
            yield (), S
        else:
            T = S._grown(S.size, chosen)
            if not _pinned_copy(T, chosen, K):
                yield chosen, T

    yield from walk(0, ())


def _pinned_copy(T: Structure, chosen: Sequence[tuple], K: ClassSpec) -> bool:
    """Whether some forbidden F of K embeds into T with a tuple tF of F on
    a chosen (relation, tuple) pair t, for the pins tF of each F with room
    in T that share t's relation and pattern of repeated entries.  F has
    room if it has no more vertices than T and, in each relation, no more
    tuples: an induced embedding maps F's tuples injectively into T's."""
    wide, orbit_pins, _, _ = _class_tests(K)
    have = (T.size, *(len(T.relations[n]) for n in K.signature.names))
    pins: dict = {}
    for name, t in chosen:
        key = (name, tuple(map(t.index, t)))
        for F, need in wide.get(key, ()):
            if all(map(operator.le, need, have)):
                for tF in orbit_pins(F)[key]:
                    pins.setdefault(F, set()).add(frozenset(zip(tF, t)))
    for F, ps in pins.items():
        for pin in ps:
            pools = [None] * F.size
            for p, q in pin:
                pools[p] = [q]
            for _ in _iter_embedding_maps(F, T, candidates=pools):
                return True
    return False


def admissible_extensions(S: Structure, K: ClassSpec) -> Iterator[Structure]:
    """Every extension of S, a member of K, by a fresh vertex that stays in
    K, one per atomic diagram, in the order of _completions.  S plus a bare
    vertex is in K iff the bare point is; if it is not, an extension with a
    tuple is still decided exactly, as each tuple's window holds the new
    vertex alone."""
    v = S.size
    *_, point = _class_tests(K)
    grown = S._grown(v + 1)
    for chosen, T in _completions(grown, _atoms_through(S.signature, v), K):
        if chosen or point:
            yield T


def enumerate_class_members(K: ClassSpec, max_size: int) -> list[Structure]:
    """All members of K with 1..max_size vertices, up to isomorphism,
    ordered by (size, canonical form).  Each is the first of its class
    among the admissible_extensions of the members one vertex smaller, by
    parent, then fewest tuples through the new vertex, then those tuples
    sorted and compared lexicographically."""
    members, out = [Structure(K.signature, 0)], []
    for v in range(max_size):
        nxt = {}
        for S in members:
            exts = [(sorted((n, t) for n, ts in T.relations.items() for t in ts if v in t), T)
                    for T in admissible_extensions(S, K)]
            for _, T in sorted(exts, key=lambda e: (len(e[0]), e[0])):
                nxt.setdefault(canonical_form(T), T)
        members = [nxt[k] for k in sorted(nxt)]
        out.extend(members)
    return out


# ---------------------------------------------------------------------------
# Disjoint 3-amalgamation over the empty base


class ThreeDapFamily:
    """A 3-disjoint family over the empty base: three structures plus, for
    each pair, an amalgam on their disjoint union (sides glued nowhere)."""

    __slots__ = ("sides", "amalgams")

    def __init__(self, sides: tuple[Structure, Structure, Structure],
                 amalgams: dict):
        self.sides = sides
        self.amalgams = dict(amalgams)  # (i, j) -> Structure on sides[i] + sides[j]

    def __repr__(self):
        return f"ThreeDapFamily(sides={[s.size for s in self.sides]})"


class ThreeDapReport:
    __slots__ = ("passed", "counterexample", "families_checked")

    def __init__(self, passed, counterexample, families_checked):
        self.passed = passed
        self.counterexample = counterexample
        self.families_checked = families_checked

    def __repr__(self):
        verdict = "pass" if self.passed else "counterexample"
        return f"ThreeDapReport({verdict}, families={self.families_checked})"


def _pair_amalgams(A: Structure, B: Structure, K: ClassSpec,
                   budget: int) -> list[Structure]:
    """All completions of the disjoint union A + B by cross tuples that stay
    in K, one per Aut(A) x Aut(B) orbit of cross tuple sets: the orbit's
    least set by (size, sorted tuples), the amalgams in that order.

    A + B grows one B-vertex at a time, adding B's tuples through the new
    vertex and completing it by the cross tuples through it, so a partial
    amalgam outside K is dropped where it appears.  Each base so completed
    is the free amalgam of a partial amalgam and a piece of B, both in K,
    so it is in K and the incremental test decides.  An orbit lies wholly
    inside K or wholly outside it, so each orbit in K keeps the least set
    that a search over all cross tuple sets would keep."""
    sig = K.signature
    na, size = A.size, A.size + B.size
    cross = _slots(sig, size, lambda t: min(t) < na <= max(t))
    if 2 ** len(cross) > budget:
        raise BudgetExceeded(f"{2 ** len(cross)} pair amalgams exceed budget")
    members = [((), A)]
    for v in range(na, size):
        own = [(n, tuple(x + na for x in t)) for n in sig.names
               for t in B.relations[n] if max(t) == v - na]
        free = [(n, t) for n, t in cross if max(t) == v]
        grown = []
        for chosen, S in members:
            base = S._grown(v + 1, own)
            grown.extend((chosen + more, T) for more, T in _completions(base, free, K))
        members = grown

    auts = [pa.map + tuple(x + na for x in pb.map)
            for pa in automorphisms(A) for pb in automorphisms(B)]

    def key(chosen, perm):
        return len(chosen), sorted((n, tuple(perm[x] for x in t)) for n, t in chosen)

    least = [(key(chosen, range(size)), C) for chosen, C in members
             if key(chosen, range(size)) == min(key(chosen, perm) for perm in auts)]
    return [C for _, C in sorted(least, key=lambda kc: kc[0])]


def _spanning_tuples(sides: Sequence[Structure], K: ClassSpec,
                     budget: int) -> list[tuple]:
    """The sorted tuples meeting all three sides, which no pair amalgam
    holds; raises BudgetExceeded if their subsets exceed the budget."""
    a0, a1, a2 = (s.size for s in sides)
    free = _slots(K.signature, a0 + a1 + a2,
                  lambda t: len({(x >= a0) + (x >= a0 + a1) for x in t}) == 3)
    if 2 ** len(free) > budget:
        raise BudgetExceeded(f"{2 ** len(free)} completions exceed budget")
    return free


def _three_dap_amalgam_exists(family: ThreeDapFamily, K: ClassSpec,
                              budget: int) -> bool:
    """Search a 3-disjoint amalgam: complete the union of the three pairwise
    amalgams with tuples spanning all three sides, the empty set first."""
    sig = K.signature
    a0, a1, a2 = (s.size for s in family.sides)
    offs = (0, a0, a0 + a1)

    rels = {name: set() for name in sig.names}
    for (i, j), amal in family.amalgams.items():
        ni = family.sides[i].size

        def glob(x, i=i, j=j, ni=ni):
            return offs[i] + x if x < ni else offs[j] + (x - ni)

        for name in sig.names:
            rels[name].update(tuple(glob(x) for x in t) for t in amal.relations[name])

    union = Structure(sig, a0 + a1 + a2, rels)
    free = _spanning_tuples(family.sides, K, budget)
    # the union can lie outside K, so what the completions keep is checked whole
    return any(satisfies_class(T, K) for _, T in _completions(union, free, K))


def _splittings(F: Structure) -> list[tuple[Structure, ...]]:
    """The ways to part F's vertices into three non-empty sets with no tuple
    of F meeting all three, as the sets' induced substructures."""
    full = (1 << F.size) - 1
    piece = {m: F.induced(v for v in F.vertices if m >> v & 1) for m in range(1, full)}
    supports = [sum(1 << x for x in set(t)) for ts in F.relations.values() for t in ts]
    return [(piece[m0], piece[m1], piece[full ^ m0 ^ m1])
            for m0, m1 in itertools.permutations(piece, 2)
            if not m0 & m1 and m0 | m1 != full
            and not any(s & m0 and s & m1 and s & ~(m0 | m1) for s in supports)]


def check_3dap_over_empty(K: ClassSpec, size_bound: int,
                          budget: int = 1 << 20) -> ThreeDapReport:
    """Exhaustively test the disjoint 3-amalgamation property over the empty
    base for families with sides of at most `size_bound` vertices.

    Families are enumerated up to isomorphism (sides as canonical class
    members, pair amalgams deduplicated under side automorphisms, fixed
    inclusion embeddings).  Reports the first family admitting no
    amalgam, else pass; `families_checked` counts the families decided up
    to it, built or not.  A family is built only if some forbidden F
    splits into its sides: F's vertices part into three non-empty sets,
    no tuple of F meeting all three, whose induced substructures embed
    into the three sides.  Otherwise the union of the pair amalgams, the
    first completion tried, is in K: on any two sides it is their amalgam
    and no tuple of it meets all three, so a copy of F in it would split.
    """
    if size_bound < 1:
        raise ValueError("size_bound must be >= 1")
    reps = enumerate_class_members(K, size_bound)
    splittings = [p for F in K.forbidden for p in _splittings(F)]
    fits = functools.cache(lambda P, i: embeds(P, reps[i]))
    amalgams = functools.cache(lambda i, j: _pair_amalgams(reps[i], reps[j], K, budget))
    checked = 0
    for i0, i1, i2 in itertools.combinations_with_replacement(range(len(reps)), 3):
        sides = (reps[i0], reps[i1], reps[i2])
        p01, p02, p12 = amalgams(i0, i1), amalgams(i0, i2), amalgams(i1, i2)
        if not any(fits(P0, i0) and fits(P1, i1) and fits(P2, i2)
                   for P0, P1, P2 in splittings):
            if p01 and p02 and p12:
                _spanning_tuples(sides, K, budget)  # as the first family would
            checked += len(p01) * len(p02) * len(p12)
            continue
        for a01 in p01:
            for a02 in p02:
                for a12 in p12:
                    family = ThreeDapFamily(
                        sides, {(0, 1): a01, (0, 2): a02, (1, 2): a12})
                    checked += 1
                    if not _three_dap_amalgam_exists(family, K, budget):
                        return ThreeDapReport(False, family, checked)
    return ThreeDapReport(True, None, checked)
