"""Depth and Cohen-Macaulayness of a face ring, two independent ways.

Depth comes from a walk over face links.  By Hochster's formula for
local cohomology (Stanley, Combinatorics and Commutative Algebra,
Thm II.4.1) the local cohomology of the face ring in degree i and
multidegree -F has the dimension of the reduced homology of the link of
the face F in degree i - |F| - 1.  Depth, the lowest i with nonzero
local cohomology, is therefore the minimum over faces F of |F| + 1 plus
the lowest degree carrying reduced homology of lk F.  Only intersections
of facets count: when F is not the intersection of the facets through
it, a vertex of that intersection outside F lies in every facet of
lk F, so lk F is a cone and has no reduced homology.  Projective
dimension is n minus depth (Auslander-Buchsbaum), and Cohen-Macaulay
means depth equals the Krull dimension dim K + 1.

The second, independent route is the multigraded Betti table: the entry
in homological degree i at the vertex subset W is the dimension of
reduced homology of K restricted to W, in degree |W| - i - 1, and
projective dimension is the largest i >= 1 carrying a nonzero entry (0
when there is none).  The two must always agree; the test suite
enforces that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complexes import (SimplicialComplex, Simplex, _check_face_budget,
                        _link, _mask, _unmask, restriction)
from .homology import FieldSpec, reduced_homology

# The Betti table walks all 2**n vertex subsets, so it caps n.
DEFAULT_VERTEX_CAP = 16


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers beta_{i,W} of a face ring.

    Entries are (i, W, value) triples with value > 0, ordered by
    homological degree i, then by |W|, then lexicographically.  The
    conventional entry beta_{0, empty} = 1 is included.
    """
    ambient: int
    coeff: FieldSpec
    entries: tuple[tuple[int, Simplex, int], ...]

    def value(self, i: int, W: Simplex) -> int:
        for ei, ew, v in self.entries:
            if ei == i and ew == tuple(W):
                return v
        return 0

    def max_degree(self) -> int:
        """Largest i >= 1 with a nonzero entry; 0 if none exists."""
        degs = [i for i, _, _ in self.entries if i >= 1]
        return max(degs) if degs else 0

    def as_json(self) -> dict:
        return {
            "n": self.ambient,
            "coefficients": self.coeff.label,
            "entries": [{"i": i, "w": list(w), "beta": v}
                        for i, w, v in self.entries],
        }


@dataclass(frozen=True)
class DepthReport:
    coeff: FieldSpec
    ambient: int
    pdim: int
    depth: int
    krull_dim: int
    cohen_macaulay: bool

    def as_json(self) -> dict:
        return {
            "coefficients": self.coeff.label,
            "n": self.ambient,
            "pdim": self.pdim,
            "depth": self.depth,
            "krull_dim": self.krull_dim,
            "cohen_macaulay": self.cohen_macaulay,
        }

    def one_line(self) -> str:
        cm = "true" if self.cohen_macaulay else "false"
        return (f"pdim={self.pdim} depth={self.depth} "
                f"dim={self.krull_dim} CM={cm}")


def _check_feasible(K: SimplicialComplex, coeff: FieldSpec, what: str):
    if not coeff.is_field:
        raise ValueError(f"{what} needs field coefficients "
                         "(q, f2, f3, fp:<p>)")
    if K.is_void:
        raise ValueError("the void complex has no face ring")


def hochster_betti_table(K: SimplicialComplex, coeff: FieldSpec,
                         max_n: int = DEFAULT_VERTEX_CAP) -> BettiTable:
    """Multigraded Betti table from homology of vertex-subset restrictions.

    The restriction to each vertex subset W contributes its degree-j
    homology dimension at homological degree |W| - j - 1.
    """
    _check_feasible(K, coeff, "the Betti table")
    if K.n > max_n:
        raise ValueError(f"n = {K.n} exceeds the cap of {max_n}: the table "
                         "walks 2**n vertex subsets; raise max_n to proceed")
    support = _mask(K.vertices)
    raw = []
    for w in range(1 << K.n):
        # restricted to the vertices of W that K uses: homology ignores the
        # others, and isomorphic restrictions share one memo entry
        R = restriction(K, _unmask(w & support))
        entries = reduced_homology(R, coeff).entries
        if entries:
            W = _unmask(w)
            for deg, free, _ in entries:
                i = len(W) - deg - 1
                if i >= 0 and free:
                    raw.append((i, W, free))
    raw.sort(key=lambda e: (e[0], len(e[1]), e[1]))
    return BettiTable(K.n, coeff, tuple(raw))


@lru_cache(maxsize=1 << 14)
def depth(K: SimplicialComplex, coeff: FieldSpec) -> DepthReport:
    """Depth report for the face ring of K over a field.

    Walks the intersections of facets by size, from the bound dim K + 1;
    a face at least as large as the current bound cannot lower it, so
    the walk stops there.  The empty face is among them unless K is a
    cone.  Refuses, as the face enumerator does, a complex above the
    face budget.  The irrelevant complex has depth 0 and Krull dimension
    0, so it counts as Cohen-Macaulay.
    """
    _check_feasible(K, coeff, "depth")
    _check_face_budget(K)
    krull = K.dimension + 1
    d = krull
    for m in _intersections(K.facet_masks):
        size = m.bit_count()
        if size >= d:
            break
        entries = reduced_homology(_link_unless_cone(K, m), coeff).entries
        if entries:
            d = min(d, size + 1 + entries[0][0])
    return DepthReport(coeff, K.n, K.n - d, d, krull, d == krull)


def _intersections(masks: tuple[int, ...]) -> list[int]:
    """Every intersection of one or more of the masks, each once, by
    size and then increasing: the masks closed under intersection."""
    found = set(masks)
    new = found
    while new:
        new = {a & b for a in new for b in masks} - found
        found |= new
    return sorted(found, key=lambda m: (m.bit_count(), m))


# the links the depth walks ask for, shared by the walks over every
# field; the link of an intersection of facets is never a cone
_link_unless_cone = lru_cache(maxsize=1 << 16)(_link)
