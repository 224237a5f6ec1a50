"""Abstract simplicial complexes on the vertex set {1, ..., n}.

A complex is stored by its facets (inclusion-maximal faces) in canonical
form: every face is a strictly increasing tuple of vertex ids, the facets
form an antichain, and the facet list is sorted lexicographically.  Three
kinds are distinguished:

* void       -- no faces at all, not even the empty one
* irrelevant -- exactly one face, the empty set
* nonempty   -- at least one vertex

Vertices of the ambient set that appear in no face are permitted.  All
operations are pure; complexes are immutable, hashable and comparable.

Derived complexes (links, restrictions, duals, nerves, strong cores)
are built from facet bitmasks; validation runs on outside input only.
Minimal nonfaces and duals come from minimal transversals, not from all
2**n subsets.  Faces have one enumerator, `_face_masks`, which lists
them as bitmasks by size; the chains, the face counts and the tuple
views all read it, and no face table is cached on a complex.  It refuses
to walk more than `FACE_BUDGET` faces, as bounded by the sum of 2**|F|
over the facets (`_check_face_budget`, which the depth walk applies
too); a dual lists no more vertex entries.
A complex or prime family built from outside input has at most
`AMBIENT_LIMIT` vertices or variables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

Simplex = tuple[int, ...]

FACE_BUDGET = 1 << 22  # 2**22 face masks hold a few hundred MB
AMBIENT_LIMIT = 1 << 15  # one vertex of n already has n - 1 minimal nonfaces

VOID = "void"
IRRELEVANT = "irrelevant"
NONEMPTY = "nonempty"


class DegenerateDualWarning(UserWarning):
    """Alexander dual requested for a void or full-simplex complex."""


def clean_face(vertices: Iterable[int]) -> Simplex:
    """Normalize an iterable of vertex ids to a sorted duplicate-free tuple."""
    return tuple(sorted(set(vertices)))


def _mask(face: Simplex) -> int:
    m = 0
    for v in face:
        m |= 1 << (v - 1)
    return m


def _unmask(m: int) -> Simplex:
    # one step per set bit, so a single high vertex costs one step
    out = []
    while m:
        b = m & -m
        out.append(b.bit_length())
        m ^= b
    return tuple(out)


def _pack(m: int, keep: Simplex) -> int:
    """Mask m relabeled order-preservingly onto the vertices in keep."""
    return sum(1 << i for i, v in enumerate(keep) if m >> (v - 1) & 1)


def _maximal(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks, each once."""
    keep: list[int] = []
    # a mask can only lie inside one with more bits, which comes earlier
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m | k == k for k in keep):
            keep.append(m)
    return keep


def _transversals(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal masks that meet every mask in `masks`: [0]
    for no masks, [] once one is empty.  Berge's algorithm: a set that
    misses the next mask grows by each of its bits, unless the grown set
    contains a set that meets the mask; no two grown sets nest."""
    out = [0]
    for s in masks:
        bits = [1 << (v - 1) for v in _unmask(s)]
        keep = [t for t in out if t & s]
        out = keep + [t | b for t in out if not t & s for b in bits
                      if not any(k | t | b == t | b for k in keep)]
    return out


def _common(masks: Iterable[int], m: int) -> int:
    """The intersection of the masks that contain m; -1 when none does.
    Over the facets of K and a face m, each bit it has beyond m is a
    cone apex of the link of m, and for m = 0 of K itself."""
    common = -1
    for fm in masks:
        if m | fm == fm:
            common &= fm
    return common


def _check_face_budget(K: SimplicialComplex) -> None:
    """Raises ValueError when sum 2**|F| over the facets of K, a bound on
    its face count, exceeds FACE_BUDGET."""
    bound = sum(1 << f.bit_count() for f in K.facet_masks)
    if bound > FACE_BUDGET:
        raise ValueError(f"face bound {bound:,} (the sum of 2**|F| over the "
                         f"facets) exceeds the face budget {FACE_BUDGET:,}")


def _face_masks(K: SimplicialComplex) -> list[list[int]]:
    """The faces of K as masks, listed by vertex count (the empty face
    first) and in increasing order within a count: every submask of
    every facet, each once.  No list at all for the void complex.  Raises
    ValueError, building nothing, above the face budget."""
    _check_face_budget(K)
    seen = {0} if K.facets else set()
    for f in K.facet_masks:
        s = f
        while s:
            seen.add(s)
            s = (s - 1) & f
    by_size: list[list[int]] = [[] for _ in range(K.dimension + 2)]
    for m in sorted(seen):
        by_size[m.bit_count()].append(m)
    return by_size


def _from_masks(n: int, masks: Iterable[int]) -> SimplicialComplex:
    """Complex on 1..n with the antichain `masks` as facets, unvalidated."""
    K = object.__new__(SimplicialComplex)
    object.__setattr__(K, "n", n)
    object.__setattr__(K, "facets", tuple(sorted(map(_unmask, masks))))
    return K


def _check_members(n: int, members: Iterable[Simplex] = (),
                   noun: str = "facet", unit: str = "vertex",
                   where: str = "ambient set",
                   antichain: bool = True) -> list[int]:
    """The members' masks, each built after its range check; ValueError
    unless 0 <= n <= AMBIENT_LIMIT and the members are strictly
    increasing tuples within 1..n, an antichain if asked.  The words
    name the members, the ambient elements and their set."""
    if n < 0:
        raise ValueError(f"ambient {unit} count must be nonnegative")
    if n > AMBIENT_LIMIT:
        raise ValueError(f"ambient {unit} count {n:,} exceeds the limit "
                         f"{AMBIENT_LIMIT:,}")
    masks = []
    for f in members:
        if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
            raise ValueError(f"{noun} {f} is not strictly increasing")
        if f and (f[0] < 1 or f[-1] > n):
            raise ValueError(f"{noun} {f} outside {where} 1..{n}")
        masks.append(_mask(f))
    if antichain and len(_maximal(masks)) != len(masks):
        raise ValueError(f"{noun}s must form an antichain")
    return masks


@dataclass(frozen=True)
class SimplicialComplex:
    n: int
    facets: tuple[Simplex, ...]

    def __post_init__(self):
        _check_members(self.n, self.facets)
        if list(self.facets) != sorted(self.facets):
            raise ValueError("facets must be sorted lexicographically")

    @property
    def kind(self) -> str:
        if not self.facets:
            return VOID
        if self.facets == ((),):
            return IRRELEVANT
        return NONEMPTY

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_irrelevant(self) -> bool:
        return self.facets == ((),)

    @property
    def dimension(self) -> int:
        """Max face dimension; -1 for the irrelevant complex, -2 for void."""
        if not self.facets:
            return -2
        return max(len(f) for f in self.facets) - 1

    @property
    def is_full_simplex(self) -> bool:
        return self.facet_masks == ((1 << self.n) - 1,)

    @cached_property
    def facet_masks(self) -> tuple[int, ...]:
        return tuple(_mask(f) for f in self.facets)

    @cached_property
    def is_cone(self) -> bool:
        """True when some vertex lies in every facet (hence contractible)."""
        return self.kind == NONEMPTY and _common(self.facet_masks, 0) != 0

    @cached_property
    def vertices(self) -> Simplex:
        """Vertices that actually occur in some face."""
        seen = 0
        for m in self.facet_masks:
            seen |= m
        return _unmask(seen)

    def is_face(self, face: Iterable[int]) -> bool:
        f = clean_face(face)
        if f and (f[0] < 1 or f[-1] > self.n):
            raise ValueError(f"face {f} outside ambient set 1..{self.n}")
        m = _mask(f)
        return any(m | fm == fm for fm in self.facet_masks)

    def faces_of_dim(self, i: int) -> tuple[Simplex, ...]:
        """All i-faces in lexicographic order (i = -1 gives the empty face),
        unmasked on each call.  Mask order is not lexicographic, as
        (2, 3) = 0b0110 comes before (1, 4) = 0b1001, so they are sorted."""
        layers = _face_masks(self)
        if not -1 <= i < len(layers) - 1:
            return ()
        return tuple(sorted(map(_unmask, layers[i + 1])))

    def faces(self) -> Iterator[Simplex]:
        """All faces, by increasing dimension then lexicographically, each
        dimension unmasked and sorted as in `faces_of_dim`."""
        for layer in _face_masks(self):
            yield from sorted(map(_unmask, layer))

    def __eq__(self, other):
        # the dataclass one builds an (n, facets) tuple for each side
        if other.__class__ is not SimplicialComplex:
            return NotImplemented
        return self.n == other.n and self.facets == other.facets

    _hash = None

    def __hash__(self):
        # the value the dataclass would give, computed once per object;
        # set as a plain attribute, which unlike a cached_property does
        # not give the object a dict of its own.  It hashes ints only,
        # so a copy pickled to a worker process keeps a valid value
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.facets)))
        return self._hash

    def __repr__(self):
        return f"SimplicialComplex(n={self.n}, facets={list(self.facets)})"


def make_complex(n: int, faces: Iterable[Iterable[int]],
                 include_empty: bool = False) -> SimplicialComplex:
    """Build the complex generated by `faces` on the ambient set 1..n.

    Input faces may be unsorted, contain duplicates, or be nested; the
    result keeps only the maximal ones.  An empty input list yields the
    irrelevant complex when include_empty is set and the void complex
    otherwise.
    """
    _check_members(n)
    masks = [0] if include_empty else []
    for f in faces:
        t = clean_face(f)
        for v in t:
            if not isinstance(v, int) or v < 1 or v > n:
                raise ValueError(f"vertex {v!r} out of range 1..{n}")
        masks.append(_mask(t))
    return _from_masks(n, _maximal(masks))


def full_simplex(n: int) -> SimplicialComplex:
    _check_members(n)
    return _from_masks(n, [(1 << n) - 1])


def restriction(K: SimplicialComplex, W: Iterable[int]) -> SimplicialComplex:
    """Restrict K to the vertex subset W, relabeled order-preservingly to
    1..|W|.  Never void when K is non-void: the empty face survives."""
    Wt = clean_face(W)
    for v in Wt:
        if v < 1 or v > K.n:
            raise ValueError(f"vertex {v} out of range 1..{K.n}")
    # packing is an order isomorphism on the subsets of W, so the maximal
    # traces can be found first and only they relabelled
    w = _mask(Wt)
    return _from_masks(len(Wt), [_pack(m, Wt) for m in
                                 _maximal(m & w for m in K.facet_masks)])


def minimal_nonfaces(K: SimplicialComplex) -> list[Simplex]:
    """Inclusion-minimal subsets of 1..n that are not faces of K, that is
    the minimal sets that meet every facet complement, by size then lex.

    For a non-void complex every minimal nonface is nonempty.  The void
    complex has the empty set as its unique minimal nonface.
    """
    full = (1 << K.n) - 1
    out = [_unmask(t) for t in _transversals(full ^ m for m in K.facet_masks)]
    out.sort(key=lambda f: (len(f), f))
    return out


def alexander_dual(K: SimplicialComplex) -> SimplicialComplex:
    """Combinatorial Alexander dual on the same ambient set: the faces are
    the subsets whose complement is not a face of K.

    The dual of the void complex is the full simplex and vice versa; both
    degenerate cases emit a DegenerateDualWarning instead of failing.
    """
    if K.is_void:
        warnings.warn("dual of the void complex is the full simplex",
                      DegenerateDualWarning, stacklevel=2)
    elif K.is_full_simplex:
        warnings.warn("dual of the full simplex is the void complex",
                      DegenerateDualWarning, stacklevel=2)
    return _dual(K)


@lru_cache(maxsize=1 << 16)
def _dual(K: SimplicialComplex) -> SimplicialComplex:
    full = (1 << K.n) - 1
    # the facets are the complements of the minimal nonfaces; the void
    # complex has one, the empty set, and the full simplex has none
    nonfaces = _transversals(full ^ m for m in K.facet_masks)
    size = sum(K.n - t.bit_count() for t in nonfaces)
    if size > FACE_BUDGET:
        raise ValueError(f"the dual's {size:,} vertex entries exceed the "
                         f"face budget {FACE_BUDGET:,}")
    return _from_masks(K.n, [full ^ t for t in nonfaces])


@lru_cache(maxsize=1 << 16)
def _core(K: SimplicialComplex) -> SimplicialComplex:
    """The strong core of K (Barmak & Minian, Strong homotopy types,
    nerves and collapses, DCG 47, 2012), relabeled onto 1..k.

    A vertex v is dominated when all facets through v share some other
    vertex w, so the link of v is a cone with apex w.  Then K - v, the
    faces without v, is a strong deformation retract of K: sending v to
    w is a simplicial retraction contiguous to the identity.  Vertices
    are deleted until none is dominated, so the core has the reduced
    homology of K over Z, Q and every F_p, torsion included.
    K itself comes back when nothing is deleted and every ambient
    vertex is used, so its cached hash and facet masks are kept."""
    masks = list(K.facet_masks)
    support = 0
    for m in masks:
        support |= m
    shrunk = True
    while shrunk:
        shrunk = False
        rest = support
        while rest:
            b = rest & -rest
            rest ^= b
            if _common(masks, b) != b:
                # every other vertex keeps a facet, so only b leaves
                masks = _maximal(m & ~b for m in masks)
                support ^= b
                shrunk = True
    if support == (1 << K.n) - 1:
        return K
    keep = _unmask(support)
    return _from_masks(len(keep), [_pack(m, keep) for m in masks])


def _canonical_form(K: SimplicialComplex) -> tuple[int, tuple[int, ...]]:
    """n and the sorted facet masks of K under a canonical vertex order:
    two complexes on 1..n share a form exactly when a permutation of
    1..n carries one onto the other.  Refine, then individualise (McKay
    & Piperno, Practical graph isomorphism, II, J. Symbolic Comput. 60,
    2014): colour refinement on the vertex-facet incidence, then one
    branch per member of the first cell left with several, that member
    singled out; the least leaf wins.  A twin of a member already tried
    (their swap maps facets to facets) gives the same leaves and is
    skipped.  Vertices in no facet are never permuted."""
    masks = K.facet_masks
    facets = frozenset(masks)
    members = [_unmask(m) for m in masks]
    through: dict[int, list[int]] = {}
    for i, f in enumerate(members):
        for v in f:
            through.setdefault(v, []).append(i)
    leaves = []

    def twins(u: int, w: int) -> bool:
        s = 1 << (u - 1) | 1 << (w - 1)
        return all(m ^ s in facets for m in masks if m & s not in (0, s))

    def search(colour: dict[int, int]) -> None:
        cells = len(set(colour.values()))
        while True:
            # a facet's signature is the multiset of its vertex colours; a
            # vertex's is its colour and the multiset of its facets' ones
            ranks = [tuple(sorted(colour[v] for v in f)) for f in members]
            sig = {v: (c, tuple(sorted(ranks[i] for i in through[v])))
                   for v, c in colour.items()}
            rank = {s: r for r, s in enumerate(sorted(set(sig.values())))}
            colour = {v: rank[s] for v, s in sig.items()}
            if len(rank) == cells:
                break
            cells = len(rank)
        if cells == len(colour):
            leaves.append(tuple(sorted(sum(1 << colour[v] for v in f)
                                       for f in members)))
            return
        cell: dict[int, list[int]] = {}
        for v, c in colour.items():
            cell.setdefault(c, []).append(v)
        tried: list[int] = []
        for v in cell[min(c for c, vs in cell.items() if len(vs) > 1)]:
            if not any(twins(u, v) for u in tried):
                tried.append(v)
                search({w: 2 * c + (w != v) for w, c in colour.items()})

    search(dict.fromkeys(through, 0))
    return K.n, min(leaves)


def nerve(cover: Sequence[Iterable[int]]) -> SimplicialComplex:
    """Nerve of a cover: one vertex per cover member (numbered by position,
    1-based), a face for every index set with a common element."""
    if not cover:
        raise ValueError("nerve of an empty cover is undefined")
    stars: dict[int, int] = {}
    for i, member in enumerate(cover):
        for v in member:
            stars[v] = stars.get(v, 0) | 1 << i
    # the facets are the maximal stars {i : v in C_i} of the covered points;
    # with no covered point only the empty index set is left
    return _from_masks(len(cover), _maximal([0, *stars.values()]))


def link(K: SimplicialComplex, s: Iterable[int]) -> SimplicialComplex:
    """Link of a face: all faces disjoint from s whose union with s is a
    face, relabeled to the compact ambient set 1..(n - |s|)."""
    st = clean_face(s)
    if not K.is_face(st):
        raise ValueError(f"{st} is not a face of the complex")
    return _link(K, _mask(st))


def _link(K: SimplicialComplex, m: int) -> SimplicialComplex:
    """`link` of the face with mask m, which must be a face of K."""
    rest = _unmask(((1 << K.n) - 1) ^ m)
    # facets through m stay an antichain once m is taken out of each
    return _from_masks(len(rest), [_pack(fm, rest) for fm in K.facet_masks
                                   if fm & m == m])


def f_vector(K: SimplicialComplex) -> tuple[int, ...]:
    """Face counts (f_-1, f_0, ..., f_dim); (0,) for the void complex."""
    return tuple(map(len, _face_masks(K))) or (0,)


def euler_characteristic(K: SimplicialComplex) -> int:
    """Unreduced Euler characteristic: alternating sum over dims >= 0."""
    return sum((-1) ** i * len(layer)
               for i, layer in enumerate(_face_masks(K)[1:]))


def reduced_euler_characteristic(K: SimplicialComplex) -> int:
    """Euler characteristic minus one for non-void complexes, 0 for void."""
    if K.is_void:
        return 0
    return euler_characteristic(K) - 1
