"""Brute-force reference implementations used to cross-check the library.

Everything in this module recomputes answers from first principles
(subset enumeration, set-based GF(2) elimination, exact elimination
over Q and GF(p)) without calling into the package, so a library bug
cannot hide inside its own oracle.  Package objects passed in are only
read for their facets, characteristic or matrix entries.  The one
exception is `dense_homology`: it builds whole boundary matrices here
and hands them to the package's dense kernels (Smith form, rank over Q
and F_p), the route with no strong core, no sparse elimination and no
clearing, so it keeps the library's own homology route honest.
Vertices are 1-based everywhere, matching the package convention.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from spectral_delta.homology import HomologyProfile
from spectral_delta.linalg import mod_p_rank, rational_rank, snf_diagonal


def subsets(universe):
    """All subsets of an iterable, as sorted tuples, smallest first."""
    items = sorted(universe)
    out = []
    for k in range(len(items) + 1):
        out.extend(combinations(items, k))
    return out


def is_subface(small, large):
    return set(small) <= set(large)


def face_set(n, facets):
    """Every face of the complex spanned by `facets`, as a set of tuples.

    The void complex (no facets at all) yields an empty set; any facet,
    including the empty one, contributes all of its subsets.
    """
    faces = set()
    for f in facets:
        for s in subsets(f):
            faces.add(s)
    return faces


def maximal_sets(sets):
    sets = {tuple(sorted(s)) for s in sets}
    out = []
    for s in sets:
        if not any(s != t and set(s) < set(t) for t in sets):
            out.append(s)
    return sorted(out)


def brute_dual_faces(n, facets):
    """Faces of the combinatorial Alexander dual, by direct enumeration.

    A subset is a dual face exactly when its complement in 1..n is not a
    face of the input complex.
    """
    faces = face_set(n, facets)
    universe = range(1, n + 1)
    out = set()
    for s in subsets(universe):
        comp = tuple(v for v in universe if v not in s)
        if comp not in faces:
            out.add(s)
    return out


def brute_minimal_nonfaces(n, facets):
    """Minimal nonfaces by scanning every subset of 1..n: the nonfaces
    whose one-smaller subsets are all faces, by size then lexicographically.
    """
    faces = face_set(n, facets)
    return [s for s in subsets(range(1, n + 1)) if s not in faces
            and all(s[:i] + s[i + 1:] in faces for i in range(len(s)))]


def brute_restriction_faces(faces, W):
    """Faces (from a face set) inside the vertex set W, relabeled
    order-preservingly onto 1..|W|."""
    label = {v: i + 1 for i, v in enumerate(sorted(W))}
    return {tuple(label[v] for v in f) for f in faces if set(f) <= set(W)}


def brute_link_faces(faces, n, s):
    """Faces (from a face set on 1..n) disjoint from s whose union with s
    is a face, relabeled order-preservingly onto 1..(n - |s|)."""
    rest = [v for v in range(1, n + 1) if v not in s]
    label = {v: i + 1 for i, v in enumerate(rest)}
    return {tuple(label[v] for v in f) for f in faces
            if not set(f) & set(s) and tuple(sorted(f + tuple(s))) in faces}


def brute_nerve_faces(cover):
    """Index sets (1-based) of cover members with a common element."""
    t = len(cover)
    out = set()
    out.add(())
    for s in subsets(range(1, t + 1)):
        if not s:
            continue
        common = set(cover[s[0] - 1])
        for i in s[1:]:
            common &= set(cover[i - 1])
        if common:
            out.add(s)
    return out


def count_nonvoid_complexes(n):
    """Count families of nonempty subsets of 1..n closed under taking
    nonempty subsets, by checking every candidate family.

    Each such family is one non-void complex (the empty family stands
    for the complex whose only face is the empty set).  Exponential in
    2**n, so only usable for n <= 3.
    """
    elems = [s for s in subsets(range(1, n + 1)) if s]
    total = 0
    for mask in range(1 << len(elems)):
        family = {elems[i] for i in range(len(elems)) if mask >> i & 1}
        ok = True
        for f in family:
            for s in subsets(f):
                if s and s not in family:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


def count_antichains(n):
    """Count antichains of nonempty subsets of 1..n directly.

    Complexes in facet form are exactly these antichains, so the count
    must agree with count_nonvoid_complexes.  Usable for n <= 4.
    """
    elems = [set(s) for s in subsets(range(1, n + 1)) if s]
    total = 0
    for mask in range(1 << len(elems)):
        chosen = [elems[i] for i in range(len(elems)) if mask >> i & 1]
        ok = all(
            not (a < b or b < a)
            for i, a in enumerate(chosen)
            for b in chosen[i + 1:]
        )
        if ok:
            total += 1
    return total


@lru_cache(maxsize=None)
def _relabellings(n):
    """For every permutation of 1..n, the image of each of the 2**n
    vertex masks."""
    return [[sum(1 << p[v] for v in range(n) if m >> v & 1)
             for m in range(1 << n)] for p in permutations(range(n))]


def brute_canonical_form(n, facets):
    """The least sorted tuple of facet masks over all n! relabellings of
    1..n: two complexes on 1..n share it exactly when one is a
    relabelling of the other."""
    masks = [sum(1 << (v - 1) for v in f) for f in facets]
    return min(tuple(sorted(table[m] for m in masks))
               for table in _relabellings(n))


def gf2_reduced_betti(n, facets):
    """Reduced Betti numbers over GF(2) via set-based column reduction.

    Returns a dict degree -> betti for degrees -1..dim.  Uses an
    augmented boundary (the empty face in degree -1), columns kept as
    sets of row faces, eliminated greedily by largest row.  Entirely
    independent of the package's matrix code.
    """
    faces = face_set(n, facets)
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for d in by_dim:
        by_dim[d].sort()
    top = max(by_dim)

    def boundary_rank(i):
        # columns are i-faces, each column the set of its (i-1)-subfaces
        cols = []
        for f in by_dim.get(i, []):
            col = frozenset(f[:j] + f[j + 1:] for j in range(len(f)))
            cols.append(set(col))
        pivots = {}
        rank = 0
        for col in cols:
            while col:
                lead = max(col)
                if lead in pivots:
                    col ^= pivots[lead]
                else:
                    pivots[lead] = col
                    rank += 1
                    break
        return rank

    betti = {}
    for i in range(-1, top + 1):
        f_i = len(by_dim.get(i, []))
        betti[i] = f_i - boundary_rank(i) - boundary_rank(i + 1)
    return betti


@lru_cache(maxsize=None)
def field_reduced_betti(faces, p=None):
    """Reduced Betti numbers of a frozenset of faces over GF(p), or over
    the rationals when p is None, as a dict degree -> betti.

    Columns are eliminated one at a time against pivots keyed by their
    largest row face, with exact Fraction or mod-p arithmetic.
    """
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)

    def boundary_rank(i):
        pivots = {}
        for f in by_dim.get(i, []):
            col = {f[:j] + f[j + 1:]: (-1) ** j for j in range(len(f))}
            while col:
                lead = max(col)
                if lead not in pivots:
                    pivots[lead] = col
                    break
                piv = pivots[lead]
                if p is None:
                    factor = Fraction(col[lead]) / piv[lead]
                else:
                    factor = col[lead] * pow(piv[lead], p - 2, p)
                for face, x in piv.items():
                    y = col.get(face, 0) - factor * x
                    if p is not None:
                        y %= p
                    if y:
                        col[face] = y
                    else:
                        col.pop(face, None)
        return len(pivots)

    return {i: len(by_dim[i]) - boundary_rank(i) - boundary_rank(i + 1)
            for i in by_dim}


def reisner_cohen_macaulay(K, coeff):
    """Reisner's criterion: the face ring of K is Cohen-Macaulay over the
    field `coeff` exactly when every face's link, the empty face
    included, has zero reduced homology strictly below the link's own
    dimension.  Reads only the facets of K and the characteristic."""
    if not K.facets:
        raise ValueError("the void complex has no face ring")
    if not coeff.is_field:
        raise ValueError("the link criterion needs field coefficients")
    faces = face_set(K.n, K.facets)
    for F in faces:
        lk = _link_of(faces, F)
        top = max(len(G) for G in lk) - 1
        betti = field_reduced_betti(lk, coeff.p)
        if any(betti[j] for j in range(-1, top)):
            return False
    return True


def brute_depth(K, coeff):
    """Depth of the face ring of K over the field `coeff` by Hochster's
    formula taken over every face F, with no cone or lattice shortcut:
    the least |F| + 1 + j with the reduced homology of lk F nonzero in
    degree j, and dim K + 1 when there is none.  Reads only the facets
    of K and the characteristic."""
    faces = face_set(K.n, K.facets)
    if not faces:
        raise ValueError("the void complex has no face ring")
    d = max(map(len, faces))
    for F in faces:
        betti = field_reduced_betti(_link_of(faces, F), coeff.p)
        low = min((j for j, b in betti.items() if b), default=None)
        if low is not None:
            d = min(d, len(F) + 1 + low)
    return d


def _link_of(faces, F):
    """The link of F in a face set, as a frozenset of faces with the
    vertices of F taken out (no relabelling)."""
    return frozenset(tuple(v for v in G if v not in F)
                     for G in faces if is_subface(F, G))


def determinant(A):
    """Determinant of a square IntMatrix by fraction-free (Bareiss)
    elimination on a copy of its entries."""
    if A.rows != A.cols:
        raise ValueError("determinant needs a square matrix")
    M = [row[:] for row in A.data]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        piv = M[k][k]
        for i in range(k + 1, n):
            Mi, Mk = M[i], M[k]
            t = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (piv * Mi[j] - t * Mk[j]) // prev
            Mi[k] = 0
        prev = piv
    return sign * M[n - 1][n - 1]


def dense_homology(basis, coeff):
    """Homology of the chain complex spanned in degree i by the face list
    basis[i], with the simplicial boundary (a face missing from
    basis[i - 1] gets no entry), from the dense kernels applied to each
    whole boundary matrix."""
    ranks, torsion = {}, {}
    for i, upper in basis.items():
        lower = basis.get(i - 1)
        if lower is None:
            continue
        index = {f: r for r, f in enumerate(lower)}
        rows = [[0] * len(upper) for _ in lower]
        for c, f in enumerate(upper):
            for j in range(len(f)):
                r = index.get(f[:j] + f[j + 1:])
                if r is not None:
                    rows[r][c] = (-1) ** j
        m, n = len(lower), len(upper)
        if coeff.tag == "integers":
            divisors = snf_diagonal(rows, m, n)
            ranks[i] = len(divisors)
            torsion[i - 1] = tuple(x for x in divisors if x > 1)
        elif coeff.tag == "rationals":
            ranks[i] = rational_rank(rows, m, n)
        else:
            ranks[i] = mod_p_rank(rows, m, n, coeff.p)
    groups = {i: (len(faces) - ranks.get(i, 0) - ranks.get(i + 1, 0),
                  torsion.get(i, ()))
              for i, faces in basis.items()}
    return HomologyProfile.from_groups(coeff, groups)


def _faces_by_dim(faces):
    by_dim = {}
    for f in sorted(faces):
        by_dim.setdefault(len(f) - 1, []).append(f)
    return by_dim


def dense_reduced_homology(K, coeff):
    """Reduced homology of K itself: `dense_homology` of its augmented
    chain complex, the empty face in degree -1."""
    return dense_homology(_faces_by_dim(face_set(K.n, K.facets)), coeff)


def dense_relative_homology(L, K, coeff):
    """Homology of the pair (L, K): `dense_homology` of the quotient
    chain complex, spanned by the nonempty faces of L not in K."""
    sub = face_set(K.n, K.facets)
    return dense_homology(_faces_by_dim(
        f for f in face_set(L.n, L.facets) if f and f not in sub), coeff)
