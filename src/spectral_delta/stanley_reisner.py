"""The dictionary between complexes and squarefree monomial ideals.

A complex K on 1..n corresponds to the ideal generated by the products
of its minimal nonfaces; the minimal primes of that ideal are generated
by the variable sets complementary to the facets of K.  For a family of
such primes, the derived complex ("delta") has one vertex per prime and
a face for every index set whose primes do not, together, use all n
variables.  With primes listed in facet order, delta of a complex is the
nerve of its facets, index for index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .complexes import (
    SimplicialComplex,
    Simplex,
    _check_members,
    _from_masks,
    _mask,
    _maximal,
    _transversals,
    _unmask,
    minimal_nonfaces,
    nerve,
)

# delta_of_primes walks all 2**k index sets of a k-member family
SUBSET_ENUM_LIMIT = 20

# how the member validator names primes, variables and their set
_WORDS = {"noun": "prime", "unit": "variable", "where": "variables"}


@dataclass(frozen=True)
class PrimeFamily:
    """A finite family of monomial primes, each given by its variable set.

    Variable sets must form an antichain under inclusion (each prime is
    minimal over the intersection of the family).  The empty set is the
    zero prime of the ambient polynomial ring; the full set 1..n is the
    maximal ideal.  Construction preserves the given order.
    """
    ambient: int
    primes: tuple[Simplex, ...]

    def __post_init__(self):
        _check_members(self.ambient, self.primes, **_WORDS)

    @classmethod
    def from_subsets(cls, ambient: int,
                     subsets: Iterable[Iterable[int]]) -> "PrimeFamily":
        """Canonicalize arbitrary input: drop duplicates and non-minimal
        members, sort lexicographically."""
        masks = _check_members(ambient, [tuple(sorted(set(s)))
                                         for s in subsets],
                               antichain=False, **_WORDS)
        union = 0
        for m in masks:
            union |= m
        # the minimal members are the complements, within the union, of
        # the maximal complements
        keep = [union ^ m for m in _maximal(union ^ m for m in masks)]
        return cls(ambient, tuple(sorted(map(_unmask, keep))))

    def __len__(self):
        return len(self.primes)


@dataclass(frozen=True)
class SRGenerators:
    """Minimal squarefree monomial generators, as vertex sets."""
    ambient: int
    generators: tuple[Simplex, ...]

    def __len__(self):
        return len(self.generators)


@lru_cache(maxsize=1 << 16)
def sr_generators(K: SimplicialComplex) -> SRGenerators:
    """Minimal monomial generators of the face ideal: the minimal nonfaces
    of K, sorted by size then lexicographically."""
    if K.is_void:
        raise ValueError("the void complex has no face ideal")
    return SRGenerators(K.n, tuple(minimal_nonfaces(K)))


def complex_from_generators(gens: SRGenerators) -> SimplicialComplex:
    """Inverse dictionary: the complex whose faces are the subsets of 1..n
    containing no generator.  Its facets are the complements of the
    minimal sets that meet every generator."""
    full = (1 << gens.ambient) - 1
    # a generator with a vertex outside 1..n lies in no face
    return _from_masks(gens.ambient, [full ^ t for t in _transversals(
        m for m in map(_mask, gens.generators) if m | full == full)])


def minimal_primes(K: SimplicialComplex) -> PrimeFamily:
    """Minimal primes of the face ideal: each is generated by the variables
    outside one facet, listed in facet order."""
    if K.is_void:
        raise ValueError("the void complex has no face ideal")
    full = (1 << K.n) - 1
    primes = tuple(_unmask(full ^ m) for m in K.facet_masks)
    return PrimeFamily(K.n, primes)


def delta_of_primes(family: PrimeFamily) -> SimplicialComplex:
    """Complex on one vertex per prime; an index set is a face exactly when
    its primes collectively miss at least one of the n variables."""
    n = family.ambient
    if n < 1:
        raise ValueError("ambient variable count must be at least 1")
    t = len(family.primes)
    if t > SUBSET_ENUM_LIMIT:
        raise ValueError(f"family has {t} primes; limit is {SUBSET_ENUM_LIMIT}")
    full = (1 << n) - 1
    masks = [_mask(p) for p in family.primes]
    union = [0] * (1 << t)
    for s in range(1, 1 << t):
        low = s & -s
        union[s] = union[s ^ low] | masks[low.bit_length() - 1]
    facets = [s for s in range(1, 1 << t)
              if union[s] != full
              and not any(union[s | (1 << b)] != full
                          for b in range(t) if not s >> b & 1)]
    # no facet when every prime is the maximal ideal
    return _from_masks(t, facets or [0])


@lru_cache(maxsize=1 << 16)
def delta_of_complex(K: SimplicialComplex) -> SimplicialComplex:
    """delta of the minimal primes of the face ideal of K.

    Because minimal_primes keeps facet order, this complex coincides with
    nerve(K.facets) vertex for vertex, which check_delta_iso_nerve relies
    on.
    """
    return delta_of_primes(minimal_primes(K))


@lru_cache(maxsize=1 << 16)
def nerve_of_facets(K: SimplicialComplex) -> SimplicialComplex:
    """Nerve of the facet cover of a non-void complex."""
    if K.is_void:
        raise ValueError("the void complex has no facets to cover it")
    return nerve(K.facets)
