"""Exact homological invariants of simplicial complexes and the depth
theory of their face rings.

The library builds complexes from facets, computes reduced and relative
simplicial homology exactly (integer Smith form, rational and prime
field ranks), translates between complexes, squarefree monomial ideals
and their minimal primes, derives depth and Cohen-Macaulayness two
independent ways, and sweeps whole corpora of complexes through a suite
of theorem checks.
"""

from .complexes import (
    DegenerateDualWarning,
    SimplicialComplex,
    Simplex,
    alexander_dual,
    clean_face,
    euler_characteristic,
    f_vector,
    full_simplex,
    link,
    make_complex,
    minimal_nonfaces,
    nerve,
    reduced_euler_characteristic,
    restriction,
)
from .linalg import IntMatrix, SnfResult, smith_normal_form
from .homology import (
    FieldSpec,
    HomologyProfile,
    Q,
    Z,
    boundary_matrix,
    reduced_homology,
    relative_homology,
)
from .stanley_reisner import (
    PrimeFamily,
    SRGenerators,
    complex_from_generators,
    delta_of_complex,
    delta_of_primes,
    minimal_primes,
    nerve_of_facets,
    sr_generators,
)
from .depth import (
    BettiTable,
    DepthReport,
    depth,
    hochster_betti_table,
)
from .checks import (
    CHECK_IDS,
    CheckOutcome,
    SweepReport,
    enumerate_complexes,
    random_complexes,
    run_instance,
    sweep,
)
from .fixtures import rp2_complex, rp2_self_check
from .checks import _orbits
from .complexes import _core, _dual
from .depth import _link_unless_cone
from .homology import _reduced_cached, _reduction

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo table of the library.  Each is a bounded
    `functools.lru_cache`; values cached on a complex itself live and go
    with that complex."""
    for memo in (_core, _dual, _reduction, _reduced_cached, sr_generators,
                 nerve_of_facets, delta_of_complex, _link_unless_cone, depth,
                 _orbits):
        memo.cache_clear()


__all__ = [
    "BettiTable", "CHECK_IDS", "CheckOutcome", "DegenerateDualWarning",
    "DepthReport", "FieldSpec", "HomologyProfile", "IntMatrix", "PrimeFamily",
    "Q", "SRGenerators", "SimplicialComplex", "Simplex", "SnfResult",
    "SweepReport", "Z", "alexander_dual", "boundary_matrix", "clean_face",
    "clear_caches", "complex_from_generators", "delta_of_complex",
    "delta_of_primes", "depth", "enumerate_complexes", "euler_characteristic",
    "f_vector", "full_simplex", "hochster_betti_table", "link",
    "make_complex", "minimal_nonfaces", "minimal_primes", "nerve",
    "nerve_of_facets", "random_complexes", "reduced_euler_characteristic",
    "reduced_homology", "relative_homology", "restriction", "rp2_complex",
    "rp2_self_check", "run_instance", "smith_normal_form", "sr_generators",
    "sweep",
]
