"""Finite relational structures and the searches everything else is built on.

A Structure is a finite relational structure over an explicit signature:
vertices are 0..size-1 and each relation holds an explicit set of tuples.
No symmetry closure is implied; a graph stores both orientations of every
edge, a 3-hypergraph stores all six orderings of every hyperedge.

On top of the data model this module provides Gaifman adjacency and
irreducibility, backtracking search for induced embeddings and
isomorphisms, membership in classes given by forbidden irreducible
substructures (which makes them closed under free amalgams), the
one-point extension walk, quantifier-free 1-types over a parameter
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


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration was asked to exceed its configured budget."""


class Signature:
    """An ordered sequence of (relation name, arity) pairs.

    Names must be unique and arities >= 1.  The empty signature (pure
    sets) is permitted.
    """

    __slots__ = ("relations", "names", "_arity")

    def __init__(self, relations: Iterable[tuple[str, int]] = ()):
        rels = tuple((str(n), int(a)) for n, a in relations)
        names = tuple(n for n, _ in rels)
        if len(set(names)) != len(names):
            raise ValueError("relation names must be unique")
        for n, a in rels:
            if a < 1:
                raise ValueError(f"arity of {n!r} must be >= 1")
        self.relations = rels
        self.names = names
        self._arity = dict(rels)

    def arity(self, name: str) -> int:
        return self._arity[name]

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

    The constructor checks each relation in a few C-level passes (entry
    types, tuple lengths, least and greatest entry); it walks the tuples
    only to convert entries that are not plain ints or to name the first
    bad tuple.  `induced` and `_grown` skip what holds by construction.
    """

    __slots__ = ("signature", "size", "relations", "meta",
                 "_hash", "_adj", "_src")

    def __init__(self, signature: Signature, size: int,
                 relations: Optional[dict] = None, meta: Optional[dict] = None):
        if size < 0:
            raise ValueError("size must be >= 0")
        rels: dict[str, frozenset] = {}
        given = dict(relations or {})
        flat = itertools.chain.from_iterable
        for name, arity in signature.relations:
            ts = list(given.pop(name, ()))
            if not (set(map(type, ts)) <= {tuple, list} and set(map(type, flat(ts))) <= {int}):
                ts = [tuple(int(x) for x in t) for t in ts]
            tuples = frozenset(map(tuple, ts))
            if tuples and (set(map(len, tuples)) != {arity}
                           or min(flat(tuples)) < 0 or max(flat(tuples)) >= size):
                _check_tuples(name, arity, tuples, size)
            rels[name] = tuples
        if given:
            raise ValueError(f"tuples for undeclared relations: {sorted(given)}")
        self.signature = signature
        self.size = size
        self.relations = rels
        self.meta = dict(meta) if meta else {}
        self._hash = self._adj = self._src = None

    def _grown(self, size: int, added: Iterable[tuple] = ()) -> "Structure":
        """This structure on `size` >= self.size vertices plus the (relation,
        tuple) pairs `added`, with no meta, checking only those; untouched
        relations share its frozensets, and a built Gaifman view extends."""
        extra: dict = {}
        for name, t in added:
            extra.setdefault(name, []).append(t)
        T = _unchecked(self.signature, size, dict(self.relations))
        for name, ts in extra.items():
            _check_tuples(name, self.signature.arity(name), ts, size)
            T.relations[name] = T.relations[name].union(ts)
        if self._adj is not None:
            T._adj = _with_tuples(self._adj + [0] * (size - self.size), extra.values())
        return T

    @property
    def vertices(self) -> range:
        return range(self.size)

    def induced(self, vertices: Iterable[int]) -> "Structure":
        """Induced substructure; new vertex i is the i-th entry of `vertices`."""
        vs = list(vertices)
        keep = set(vs)
        if len(keep) != len(vs):
            raise ValueError("vertex list must not repeat")
        if vs and (min(vs) < 0 or max(vs) >= self.size):
            raise ValueError("vertex out of range")
        pos = dict(zip(vs, itertools.count())).__getitem__
        return _unchecked(self.signature, len(vs), {
            name: frozenset(tuple(map(pos, t)) for t in filter(keep.issuperset, ts))
            for name, ts in self.relations.items()})

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


def _unchecked(signature: Signature, size: int, relations: dict) -> Structure:
    """A structure on relation frozensets that are valid by construction."""
    T = Structure.__new__(Structure)
    T.signature, T.size, T.relations, T.meta = signature, size, relations, {}
    T._hash = T._adj = T._src = None
    return T


def _check_tuples(name: str, arity: int, tuples: Iterable[tuple], size: int) -> None:
    for t in tuples:
        if len(t) != arity:
            raise ValueError(f"tuple {t} has wrong length for {name!r}/{arity}")
        if min(t) < 0 or max(t) >= size:
            raise ValueError(f"tuple {t} of {name!r} out of range 0..{size - 1}")


class Embedding:
    """The map record of a sunflower certificate: a vertex map, source
    vertex i to target vertex map[i].  It is not validated here;
    embedding_defect checks it, as verify_sunflower_cert does."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: Structure, target: Structure, vertex_map: Iterable[int]):
        self.source = source
        self.target = target
        self.map = tuple(vertex_map)

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


def _adjacency_bits(S: Structure) -> list[int]:
    """Per vertex, the bitmask of its Gaifman neighbours (cached: the one
    Gaifman view of a structure)."""
    if S._adj is None:
        S._adj = _with_tuples([0] * S.size, S.relations.values())
    return S._adj


def _with_tuples(bits: list[int], tables: Iterable[Iterable[tuple]]) -> list[int]:
    """The Gaifman view `bits`, updated in place: each tuple's vertex mask is
    ORed into its vertices, then the diagonal is cleared where it was set."""
    seen = 0
    for t in itertools.chain.from_iterable(tables):
        m = 0
        for v in t:
            m |= 1 << v
        for v in t:
            bits[v] |= m
        seen |= m
    while seen:
        low = seen & -seen
        bits[low.bit_length() - 1] ^= low
        seen ^= low
    return bits


def is_irreducible(S: Structure) -> bool:
    """True iff the Gaifman graph is a clique (size <= 1 counts)."""
    bits = _adjacency_bits(S)
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
                         candidates: Optional[Sequence[int]] = None,
                         ) -> Iterator[tuple[int, ...]]:
    """Backtracking search for induced embeddings of A in B.

    Yields image tuples in lexicographic order.  A-vertices are mapped in
    index order; `candidates`, if given, holds one int bitmask of
    B-vertices per depth, -1 for any vertex (None is not accepted as an
    entry), and restricts that depth's pool outright.  Callers build each
    mask once, where their data is grouped.

    The search is one generator frame with an explicit stack: per placed
    depth, the mask of candidates still to try, beside a `free` mask of
    unused B-vertices.  A depth's candidates are its free pooled vertices
    that are B-neighbours of the images of its earlier A-neighbours in the
    Gaifman graph.  (A tuple of arity 3 or more can join two image
    vertices through a vertex outside the image, so Gaifman non-adjacency
    is not transported.)  They are tried in ascending order: first
    `candidate_filter(depth, v, partial)`, which sees the images of
    A-vertices 0..depth-1 and may veto v; then forward checking (Haralick
    and Elliott 1980), which prunes v if depth+1 would have no candidates
    and so changes no yield or filter call; then the VF2-style atom test of
    v against the vertices already mapped (Cordella et al. 2004): every
    atom over A-vertices 0..depth that mentions depth holds in A iff it
    holds on the image.
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
        # per depth d: the atoms through d, each with the getter of its image
        # tuple from `partial` and its truth in A, and the earlier Gaifman
        # neighbours
        bits_a = _adjacency_bits(A)
        A._src = [([(name, operator.itemgetter(*p) if len(p) > 1 else lambda s, x=p[0]: (s[x],),
                     p in A.relations[name]) for name, p in _atoms_through(A.signature, d)],
                   [u for u in range(d) if bits_a[d] >> u & 1])
                  for d in range(nA)]
    src = A._src

    adj_bits = _adjacency_bits(B)
    b_rel = B.relations
    last = nA - 1
    pools = [-1] * nA if candidates is None else candidates
    free = (1 << B.size) - 1
    partial: list[int] = []
    stack = [free & pools[0]]
    while stack:
        m = stack[-1]
        if not m:
            stack.pop()
            if partial:
                free |= 1 << partial.pop()
            continue
        low = m & -m
        stack[-1] = m ^ low
        v = low.bit_length() - 1
        depth = len(partial)
        if candidate_filter is not None and not candidate_filter(depth, v, partial):
            continue
        partial.append(v)
        if depth != last:
            nxt = (free ^ low) & pools[depth + 1]
            for u in src[depth + 1][1]:
                nxt &= adj_bits[partial[u]]
            if not nxt:
                partial.pop()
                continue
        for name, image, held in src[depth][0]:
            if (image(partial) in b_rel[name]) != held:
                partial.pop()
                break
        else:
            if depth == last:
                yield tuple(partial)
                partial.pop()
                continue
            free ^= low
            stack.append(nxt)


def find_embeddings(A: Structure, B: Structure,
                    limit: Optional[int] = None) -> list[tuple[int, ...]]:
    """The image tuples of all induced embeddings of A into B, in
    lexicographic order, truncated at `limit` (None means unlimited)."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    return list(itertools.islice(_iter_embedding_maps(A, B), limit))


def embeds(A: Structure, B: Structure) -> bool:
    return next(_iter_embedding_maps(A, B), None) is not None


def are_isomorphic(A: Structure, B: Structure) -> Optional[tuple[int, ...]]:
    """The image tuple of a bijective induced embedding A -> B if one
    exists, else None.

    Deterministic: returns the lexicographically least isomorphism (on the
    image sequence), so the identity when A == B.  The search maps each
    vertex into its stable colour class (_colour_pools); every isomorphism
    does, so the least one is found there.
    """
    if A.signature != B.signature:
        raise SignatureMismatch("isomorphism test needs matching signatures")
    if A == B:
        return tuple(range(A.size))
    pools = _colour_pools(A, B)
    if pools is None:
        return None
    return next(_iter_embedding_maps(A, B, candidates=pools), None)


def _colour_pools(A: Structure, B: Structure) -> Optional[list[int]]:
    """Per vertex of A, the mask of B's vertices of its stable colour, or
    None when some colour has more vertices in one than in the other.

    Colour refinement (1-dimensional Weisfeiler-Leman) runs on A and B at
    once, B's vertices numbered after A's: each round ranks every vertex by
    its colour and the sorted (relation, position, colours of the tuple) of
    its tuples, in the order of the sorted keys, until no class splits.  An
    isomorphism A -> B and its inverse are an automorphism of the union,
    which keeps every colour."""
    n = A.size
    incident: list[list] = [[] for _ in range(n + B.size)]
    for r, name in enumerate(A.signature.names):
        for t in [*A.relations[name], *(tuple(x + n for x in t) for t in B.relations[name])]:
            for i, x in enumerate(t):
                incident[x].append((r, i, t))
    colour, classes = [0] * len(incident), 1
    while True:
        keys = [(colour[v], tuple(sorted([(r, i, tuple(map(colour.__getitem__, t)))
                                          for r, i, t in ts])))
                for v, ts in enumerate(incident)]
        rank = {key: c for c, key in enumerate(sorted(set(keys)))}
        colour = [rank[key] for key in keys]
        if len(rank) == classes:
            break
        classes = len(rank)
    if sorted(colour[:n]) != sorted(colour[n:]):
        return None
    return [vertex_mask(v for v in B.vertices if colour[n + v] == c) for c in colour[:n]]


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask of a vertex collection, as the kernel's pools take it."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def colour_classes(vertices: Iterable[int], colour: Sequence[int],
                   min_size: int) -> list[int]:
    """The vertices grouped by their colours `colour[v]`, each class a
    vertex mask and the classes in order of their least vertex, dropping
    classes with fewer than `min_size` members.

    A copy is monochromatic iff it lies inside one class, so searching each
    class as a kernel pool finds exactly the copies a same-colour
    candidate filter would pass, without calling it on every candidate.
    """
    classes: dict = {}
    for v in sorted(vertices):
        classes.setdefault(colour[v], []).append(v)
    return [vertex_mask(c) for c in classes.values() if len(c) >= min_size]


def automorphisms(S: Structure) -> list[tuple[int, ...]]:
    """All automorphisms as image tuples, each vertex mapped into its stable
    colour class (_colour_pools), in lexicographic order (for small dedup
    work only)."""
    return list(_iter_embedding_maps(S, S, candidates=_colour_pools(S, S)))


_CANON_MAX = 9


def canonical_form(S: Structure) -> tuple:
    """A relabelling-invariant certificate: the minimum, over all vertex
    bijections to 0..n-1, of the sorted relabelled tuple sets.

    Brute force over permutations; guarded at 9 vertices (this package
    never needs canonical forms of larger structures).
    """
    if S.size > _CANON_MAX:
        raise BudgetExceeded(f"canonical_form limited to {_CANON_MAX} vertices")
    names = S.signature.names
    best = None
    for perm in itertools.permutations(range(S.size)):
        cert = tuple(tuple(sorted(tuple(perm[x] for x in t) for t in S.relations[n]))
                     for n in names)
        if best is None or cert < best:
            best = cert
    return (S.signature.relations, S.size, best)


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
    return not any(F.size <= S.size and embeds(F, S) for F in K.forbidden)


def satisfies_class_at(S: Structure, K: ClassSpec, v: int) -> bool:
    """Like satisfies_class but only checks embeddings whose image contains
    vertex v.  Sound for incremental use: if S minus its tuples through v
    was in K, this decides membership of S."""
    if S.signature != K.signature:
        raise SignatureMismatch("structure/class signature mismatch")
    for F in K.forbidden:
        for anchor in range(F.size):
            pools = [1 << v if d == anchor else -1 for d in range(F.size)]
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
            if any(not -1 <= j < len(self.parameters) for j in pat):
                raise ValueError("type atom references a missing parameter")

    @property
    def nparams(self) -> int:
        return len(self.parameters)

    def check_signature(self, sig: Signature) -> None:
        """Raise ValueError unless each atom is a relation of sig at its arity."""
        for name, pat in sorted(self.positives):
            if sig._arity.get(name) != len(pat):
                raise ValueError(f"type atom {name}{list(pat)} does not fit the signature")

    def __eq__(self, other):
        return (isinstance(other, QfType)
                and self.parameters == other.parameters
                and self.positives == other.positives)

    def __hash__(self):
        return hash((self.parameters, self.positives))

    def __repr__(self):
        return f"QfType(params={self.parameters}, positives={sorted(self.positives)})"


def qf_type(S: Structure, v: int, params: Iterable[int]) -> QfType:
    """The complete atomic diagram of v over the parameter sequence: the
    atoms through position n = |params| that hold on params + (v,), with n
    standing for the point as -1."""
    A = tuple(params)
    if v in A:
        raise ValueError("the new point must not be a parameter")
    if any(a < 0 or a >= S.size for a in A) or v < 0 or v >= S.size:
        raise ValueError("vertex out of range")
    at, n = A + (v,), len(A)
    return QfType(A, [(name, tuple(-1 if j == n else j for j in t))
                      for name, t in _atoms_through(S.signature, n)
                      if tuple(at[j] for j in t) in S.relations[name]])


def _with_point(S: Structure, A: Sequence[int], positives: Iterable[tuple]) -> Structure:
    """The diagram of the distinct vertices A of S on 0..|A|-1, plus a point
    |A| whose atoms over them are `positives` (the point written as -1)."""
    b = len(A)
    point = [(name, tuple(b if j == -1 else j for j in pat)) for name, pat in positives]
    return Structure(S.signature, b + 1)._grown(b + 1, [*_diagram(S, A), *point])


def _realisers(T: Structure, S: Structure, A: Sequence[int], pool: int) -> Iterator[int]:
    """The vertices of the int mask `pool` (-1 for any vertex; None is not
    accepted) outside A that realise T's last vertex over A, ascending: the
    last images of one kernel search of T in S, depth j pinned to A[j],
    where T's other vertices have A's diagram, as _with_point builds it."""
    for m in _iter_embedding_maps(T, S, candidates=[1 << a for a in A] + [pool]):
        yield m[-1]


def realisation_set(S: Structure, params: Iterable[int], p: QfType) -> list[int]:
    """All v outside the parameters, which must be distinct, whose type over
    them equals p, ascending."""
    A, b = tuple(params), p.nparams
    if len(A) != b:
        raise ValueError("parameter count differs from the type's")
    p.check_signature(S.signature)
    if any(a < 0 or a >= S.size for a in A):
        raise ValueError("vertex out of range")
    if len(set(A)) != b:
        raise ValueError("parameters must not repeat")
    return list(_realisers(_with_point(S, A, p.positives), S, A, -1))


# ---------------------------------------------------------------------------
# Completions in a class and class members up to isomorphism


# A cap on each class's cache of window options.  A catalog class fills 2-3
# entries over 16 seeds of its gen --klass job; the cap stays as one entry
# lists up to 2^|group| subsets, 16,384 at a pair support of a 4-ary relation.
_WINDOW_MEMO = 1 << 12


def _class_tests(K: ClassSpec) -> tuple:
    """K's incremental tests, built once: each forbidden F, with its counts
    of vertices and of tuples per relation, filed by relation and pattern
    of repeated entries of its tuples not spanning F, F's support pins on
    first use (_support_pins, which lists no automorphisms of F), a
    support's options per window frame, cached (_window_options) in the
    keys of all |F|! relabellings of each F that fits in a window (capped
    as canonical_form is), and whether K admits the bare point.  The memos
    live as long as K."""
    if K._tests is None:
        width = max((a for _, a in K.signature.relations), default=0)
        narrow = [F for F in K.forbidden if F.size <= width]
        if any(F.size > _CANON_MAX for F in narrow):
            raise BudgetExceeded(f"canonical_form limited to {_CANON_MAX} vertices")
        small = {_atom_key(F, p) for F in narrow for p in itertools.permutations(F.vertices)}
        wide: dict = {}
        for F in K.forbidden:
            need = (F.size, *(len(F.relations[n]) for n in K.signature.names))
            for key in {(n, tuple(map(t.index, t))) for n, ts in F.relations.items()
                        for t in ts if len(set(t)) < F.size}:
                wide.setdefault(key, []).append((F, need))
        window = functools.partial(_window_options, K.signature, small)
        K._tests = (wide, functools.cache(_support_pins), functools.lru_cache(_WINDOW_MEMO)(window),
                    satisfies_class(Structure(K.signature, 1), K))
    return K._tests


def _atom_key(S: Structure, p: Sequence[int]) -> tuple:
    """S relabelled by x -> p[x]: its size and atoms, which decide it up to equality."""
    return S.size, frozenset((n, tuple(p[x] for x in t))
                             for n, ts in S.relations.items() for t in ts)


def _support_pins(F: Structure) -> dict:
    """The supports of F's tuples not spanning F, filed like F in _class_tests,
    each as F relabelled to put it first, both parts ascending, one per
    distinct relabelled F.  Aut(F) is not listed: supports in one orbit give
    equivalent searches (if an embedding e maps a(s) onto a set, for an
    automorphism a, then e after a maps s onto it), so a second pin of an
    orbit repeats a search and changes no verdict."""
    pins: dict = {}
    for key, sup in sorted({((n, tuple(map(t.index, t))), tuple(sorted(set(t))))
                            for n, ts in F.relations.items() for t in ts if len(set(t)) < F.size}):
        G = F.induced(sup + tuple(v for v in F.vertices if v not in sup))
        if G not in pins.setdefault(key, []):
            pins[key].append(G)
    return pins


def _window_options(sig: Signature, small: set, frame: frozenset, group: tuple) -> tuple:
    """The index subsets of `group`, atoms spanning positions 0..m-1, whose
    window (those positions with the atoms of `frame` and of the subset) has
    no induced substructure in `small`, by size, then lexicographically.  The
    empty subset passes; the proper sub-windows hold no atom of the group."""
    m = len(set(group[0][1]))
    W = Structure(sig, m)._grown(m, frame)
    if any(_atom_key(W.induced(sub), range(r)) in small
           for r in range(1, m) for sub in itertools.combinations(range(m), r)):
        return ((),)
    return tuple(idx for r in range(len(group) + 1)
                 for idx in itertools.combinations(range(len(group)), r)
                 if not idx or (m, frame.union(group[i] for i in idx)) not in small)


def _by_support(free: Iterable[tuple]) -> list[tuple[tuple, list]]:
    """(support, pairs) for the (relation, tuple) pairs `free` by support, the
    sorted set of vertices a tuple mentions: smaller first, ties by support."""
    groups: dict = {}
    for name, t in free:
        groups.setdefault(tuple(sorted(set(t))), []).append((name, t))
    return sorted(groups.items(), key=lambda g: (len(g[0]), g[0]))


def _completions(S: Structure, supports: Sequence[tuple[tuple, list]],
                 K: ClassSpec) -> Iterator[tuple[tuple, Structure]]:
    """(chosen, T) for each subset `chosen` of the (relation, tuple) pairs
    in `supports`, grouped as by _by_support, whose completion T (S plus
    the chosen tuples) has no forbidden copy through a chosen tuple.  Each
    dropped is outside K; if S is in K, exactly those in K are yielded.

    The tuples are decided support by support in the order given, each
    support's subsets by size, then lexicographically in the order of its
    pairs; with one support, that is the order of all subsets, which is how
    generators.gen_generic samples a new vertex one support at a time.

    A copy of a forbidden F that S lacks holds a chosen tuple, the image of
    a tuple of F.  If that tuple spans F, the copy lies in the window of T
    on the tuple's support, which is final once its support is decided.
    So a support's options are listed once per frame, the atoms of S and
    of the earlier chosen tuples on the support (_window_options).  Every
    other copy maps a tuple of F not spanning F onto a chosen tuple, and is
    searched in each complete T with supports pinned (_pinned_copy)."""
    window = _class_tests(K)[2]

    def walk(i: int, chosen: tuple, again: Callable) -> Iterator[tuple[tuple, Structure]]:
        if i < len(supports):
            sup, group = supports[i]
            pos = {x: j for j, x in enumerate(sup)}
            frame = _diagram(S, sup) | {(n, tuple(pos[x] for x in t))
                                        for n, t in chosen if pos.keys() >= set(t)}
            for idx in window(frame, tuple((n, tuple(pos[x] for x in t)) for n, t in group)):
                yield from again(i + 1, chosen + tuple(group[j] for j in idx), again)
        elif not chosen:
            yield (), S
        else:
            T = S._grown(S.size, chosen)
            if not _pinned_copy(T, chosen, K):
                yield chosen, T

    # walk is passed itself, as naming itself makes a cycle that outlives the call
    yield from walk(0, (), walk)


def _pinned_copy(T: Structure, chosen: Sequence[tuple], K: ClassSpec) -> bool:
    """Whether a forbidden F with room embeds with a pin (_support_pins) on the
    support of a chosen (relation, tuple) pair of the pin's relation and
    pattern of repeated entries, one search per pin and chosen support; pins
    in one Aut(F) orbit search alike.  F has room if no larger than the
    support and its common Gaifman neighbours in T, where irreducible F must
    lie, nor richer in tuples of a relation.  If T minus the chosen tuples,
    and their windows, are in K, this decides T."""
    wide, support_pins, _, _ = _class_tests(K)
    counts = [len(T.relations[n]) for n in K.signature.names]
    searches: dict = {}
    keyed = (((n, tuple(map(t.index, t))), t) for n, t in chosen)
    for (key, pool), t in {(key, vertex_mask(t)): t for key, t in keyed if key in wide}.items():
        near = functools.reduce(operator.and_, (_adjacency_bits(T)[v] | 1 << v for v in t))
        for F, need in wide[key]:
            if all(map(operator.le, need, (near.bit_count(), *counts))):
                for G in support_pins(F)[key]:
                    searches[G, pool] = pool.bit_count()
    for (G, pool), m in searches.items():
        for _ in _iter_embedding_maps(G, T, candidates=[pool] * m + [-1] * (G.size - m)):
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
    for chosen, T in _completions(grown, _by_support(_atoms_through(S.signature, v)), K):
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

DEFAULT_3DAP_BUDGET = 1 << 20  # cap on the pair amalgams or completions listed at once


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
        free = _by_support((n, t) for n, t in cross if max(t) == v)
        grown = []
        for chosen, S in members:
            base = S._grown(v + 1, own)
            grown.extend((chosen + more, T) for more, T in _completions(base, free, K))
        members = grown

    auts = [pa + tuple(x + na for x in pb)
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
    return any(satisfies_class(T, K) for _, T in _completions(union, _by_support(free), K))


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
                          budget: int = DEFAULT_3DAP_BUDGET) -> ThreeDapReport:
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
