"""Reduced and relative simplicial homology with exact coefficients.

Relative homology is reduced homology of another complex.  For a
non-void subcomplex K of L, let L u aK be L with the cone on K glued in,
on the vertices 1..n + 1 with the apex a = n + 1.  Its faces not in the
cone aK are exactly the nonempty faces of L not in K, so the quotient
of the augmented chain complex of L u aK by that of aK is the relative
chain complex C(L, K), face for face and with the same boundary.  The
cone is acyclic, so the long exact sequence of this quotient gives
H_i(L, K) = H~_i(L u aK) over Z, Q and every F_p, torsion included
(Hatcher, Algebraic Topology, Prop. 2.22).  For a void K the apex is
an isolated vertex instead, and H~_i(L + point) is the unreduced H_i(L).
So pairs take the one reduced path below.

Reduced homology is computed on the strong core of a complex, not on the
complex itself.  Before any face or chain exists, dominated vertices are
deleted from the facet masks: a vertex v is dominated by another vertex
w when every facet through v contains w, so the link of v is a cone on
w.  The vertex map sending v to w and fixing the rest is a simplicial
retraction of K onto K - v that is contiguous to the identity (a
simplex s through v lies in a facet through v, which contains w, so
s and its image span a face), so K - v is a strong deformation retract
of K (Barmak & Minian, DCG 47, 2012).  Reduced homology over Z, Q and
every F_p, torsion included, is therefore that of the core.

The homology of a core comes from one chain-complex kernel in two
steps.  The first is coefficient-free: the faces come as bitmasks
from `complexes._face_masks`, each boundary map is built as sparse
columns and has its +-1 pivots cleared by unimodular column operations,
leaving per degree the face count, the pivot count and a dense
leftover.  The maps are taken from the top degree down, and the map out
of degree i gets no column for an i-face that was a unit-pivot row one
degree up (clearing, the twist of Chen and Kerber).  That column is
redundant because dd = 0: the pivot column there is d(z) for an
integral chain z with a +-1 in that row, so d(d(z)) = 0 writes the
cleared column as an integer combination of the columns of later pivot
rows and of rows never pivoted on, and by induction from the last pivot
back, of kept columns alone.  The image lattice, hence the Smith
divisors and the rank over Q and every F_p, is unchanged.  This
reduction is memoised once per core, so Z, Q and every F_p share it.
The second step is per coefficient and sees only the leftovers: integer
homology reports free rank plus elementary divisors (torsion) from
Smith form; field homology reports Betti dimensions computed by exact
rank over Q (Bareiss) or F_p (modular elimination), never by reduction
of the integral answer.  The chain complex is augmented: degree -1 is
spanned by the empty face, so the irrelevant complex has one nonzero
group, in degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .complexes import (SimplicialComplex, _core, _face_masks, _from_masks,
                        _mask, _maximal)
from .linalg import (IntMatrix, _eliminate_unit_pivots, mod_p_rank,
                     rational_rank, snf_diagonal)

_MAX_PRIME = 1 << 31


def _is_prime(p: int) -> bool:
    # FieldSpec has already refused p < 2
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient system: the integers, the rationals, or a prime field."""
    tag: str
    p: int | None = None

    def __post_init__(self):
        if self.tag not in ("integers", "rationals", "prime_field"):
            raise ValueError(f"unknown coefficient tag {self.tag!r}")
        if self.tag == "prime_field":
            if self.p is None or self.p < 2 or self.p >= _MAX_PRIME:
                raise ValueError("prime field characteristic must satisfy "
                                 "2 <= p < 2**31")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        elif self.p is not None:
            raise ValueError("characteristic only applies to prime fields")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime_field", p)

    @classmethod
    def parse(cls, token: str) -> "FieldSpec":
        """Parse a coefficient flag: z, q, f2, f3 or fp:<prime>."""
        t = token.strip().lower()
        if t == "z":
            return cls("integers")
        if t == "q":
            return cls("rationals")
        if t == "f2":
            return cls.prime(2)
        if t == "f3":
            return cls.prime(3)
        if t.startswith("fp:"):
            try:
                p = int(t[3:])
            except ValueError:
                raise ValueError(f"bad prime in coefficient flag {token!r}")
            return cls.prime(p)
        raise ValueError(f"unknown coefficient flag {token!r} "
                         "(expected z, q, f2, f3 or fp:<prime>)")

    @property
    def is_field(self) -> bool:
        return self.tag != "integers"

    @property
    def label(self) -> str:
        if self.tag == "integers":
            return "Z"
        if self.tag == "rationals":
            return "Q"
        return f"F{self.p}"

    def __str__(self):
        return self.label


Z = FieldSpec("integers")
Q = FieldSpec("rationals")


@dataclass(frozen=True)
class HomologyProfile:
    """Per-degree groups: (degree, free rank, torsion divisors).

    Only nonzero groups are stored, so two profiles are equal exactly
    when they describe the same homology, regardless of the dimensions
    of the complexes they came from.
    """
    coeff: FieldSpec
    entries: tuple[tuple[int, int, tuple[int, ...]], ...] = ()

    @classmethod
    def from_groups(cls, coeff: FieldSpec,
                    groups: Mapping[int, tuple[int, Iterable[int]]]
                    ) -> "HomologyProfile":
        entries = []
        for deg in sorted(groups):
            free, torsion = groups[deg]
            torsion = tuple(torsion)
            if free or torsion:
                entries.append((deg, free, torsion))
        return cls(coeff, tuple(entries))

    def free_rank(self, i: int) -> int:
        for deg, free, _ in self.entries:
            if deg == i:
                return free
        return 0

    def torsion(self, i: int) -> tuple[int, ...]:
        for deg, _, tors in self.entries:
            if deg == i:
                return tors
        return ()

    def group_is_trivial(self, i: int) -> bool:
        return self.free_rank(i) == 0 and not self.torsion(i)

    @property
    def is_trivial(self) -> bool:
        return not self.entries

    def nonzero_degrees(self) -> list[int]:
        return [deg for deg, _, _ in self.entries]

    def as_json(self) -> dict:
        return {
            "coefficients": self.coeff.label,
            "groups": {
                str(deg): {"free": free, "torsion": list(tors)}
                for deg, free, tors in self.entries
            },
        }


def boundary_matrix(K: SimplicialComplex, i: int) -> IntMatrix:
    """Boundary map from i-chains to (i-1)-chains in the augmented complex.

    Rows are indexed by the (i-1)-faces and columns by the i-faces, both
    in lexicographic order; the entry for dropping the j-th smallest
    vertex is (-1)**j.  For i = 0 this is the 1 x f_0 all-ones
    augmentation row.  An i outside -1..dim+1 yields a 0 x 0 matrix.
    """
    if i < -1 or i > K.dimension + 1:
        return IntMatrix(0, 0)
    lower, upper = K.faces_of_dim(i - 1), K.faces_of_dim(i)
    index = {_mask(f): r for r, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for c, col in enumerate(_boundary_columns(index, map(_mask, upper))):
        for r, x in col.items():
            rows[r][c] = x
    return IntMatrix(len(lower), len(upper), rows)


def _boundary_columns(index: Mapping[int, int],
                      upper: Iterable[int]) -> list[dict[int, int]]:
    """Sparse boundary columns `{row: sign}`, one per face mask in
    `upper`, with `index` giving the row of each face one degree down.
    Dropping the j-th lowest bit of a face gives the sign (-1)**j."""
    cols = []
    for m in upper:
        col = {}
        sign = 1
        rest = m
        while rest:
            b = rest & -rest
            rest ^= b
            col[index[m ^ b]] = sign
            sign = -sign
        cols.append(col)
    return cols


# per degree i: (i, number of i-faces, unit pivots of the boundary map
# out of degree i, the dense leftover of that map as a tuple of rows)
Reduction = tuple[tuple[int, int, int, tuple[tuple[int, ...], ...]], ...]


@lru_cache(maxsize=1 << 16)
def _reduction(K: SimplicialComplex) -> Reduction:
    """The coefficient-free part of the homology of the augmented chain
    complex of a non-void K (degrees -1..dim), shared by every
    coefficient system: each boundary map has its +-1 pivots cleared
    sparsely, which is unimodular and so valid over Z, Q and every F_p
    at once.

    The degrees are walked from the top down, and the map out of degree
    i is built only on the i-faces that were not unit-pivot rows of the
    map out of degree i + 1.  By dd = 0 each skipped column lies in the
    integer span of the kept ones (see the module docstring), so the
    rank and the Smith divisors of every map stay those of the full
    boundary.  The record lists the degrees in increasing order, each
    with its full face count.  The face masks are built here and
    dropped; only the counts and the leftovers are kept."""
    faces = _face_masks(K)
    out = []
    cleared: set[int] = set()
    for i in range(len(faces) - 2, -2, -1):
        upper = [m for j, m in enumerate(faces[i + 1]) if j not in cleared]
        pivots, rest = [], ()
        if i >= 0 and upper:
            index = {m: r for r, m in enumerate(faces[i])}
            pivots, rest = _eliminate_unit_pivots(
                _boundary_columns(index, upper))
        out.append((i, len(faces[i + 1]), len(pivots),
                    tuple(map(tuple, rest))))
        cleared = set(pivots)
    return tuple(reversed(out))


def _homology(reduction: Reduction, coeff: FieldSpec) -> HomologyProfile:
    """Finish a reduction over `coeff`: the dense kernel (Smith divisors
    over Z, exact rank over a field) sees only the leftovers, so with no
    leftover the free ranks are the answer for every coefficient."""
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for i, _, pivots, rest in reduction:
        ranks[i] = pivots
        if not rest:
            continue
        m, n = len(rest), len(rest[0])
        if coeff.tag == "integers":
            divisors = snf_diagonal(rest, m, n)
            ranks[i] += len(divisors)
            torsion[i - 1] = tuple(d for d in divisors if d > 1)
        elif coeff.tag == "rationals":
            ranks[i] += rational_rank(rest, m, n)
        else:
            ranks[i] += mod_p_rank(rest, m, n, coeff.p)
    groups = {i: (faces - ranks[i] - ranks.get(i + 1, 0), torsion.get(i, ()))
              for i, faces, _, _ in reduction}
    return HomologyProfile.from_groups(coeff, groups)


@lru_cache(maxsize=1 << 17)
def reduced_homology(K: SimplicialComplex, coeff: FieldSpec) -> HomologyProfile:
    """Reduced homology of K with the given coefficients.

    The void complex gets an all-trivial profile rather than an error.
    """
    if not isinstance(coeff, FieldSpec):
        raise TypeError("coefficients must be a FieldSpec")
    if K.is_cone:
        # a vertex common to all facets makes the complex a cone, which is
        # contractible: every reduced group vanishes
        return HomologyProfile(coeff)
    return _homology(_reduction(_core(K)), coeff)


def relative_homology(L: SimplicialComplex, K: SimplicialComplex,
                      coeff: FieldSpec) -> HomologyProfile:
    """Unreduced homology of the pair (L, K) for a subcomplex K of L.

    Computed as the reduced homology of L with a cone on K glued in,
    L u aK on the vertices 1..n + 1 with the apex a = n + 1 (see the
    module docstring), so pairs share the strong core, the cone
    shortcut and the memoised reduction with reduced homology.  K may
    be void, in which case the apex is a vertex of its own and this is
    the unreduced homology of L.
    """
    if L.n != K.n:
        raise ValueError("pair must share one ambient vertex set")
    if not K.is_void and L.is_void:
        raise ValueError("K is not a subcomplex of the void complex")
    for f in K.facets:
        if f and not L.is_face(f):
            raise ValueError(f"{f} is a facet of K but not a face of L")
    apex = 1 << L.n
    cone = [m | apex for m in K.facet_masks] or [apex]
    return reduced_homology(
        _from_masks(L.n + 1, _maximal([*L.facet_masks, *cone])), coeff)
