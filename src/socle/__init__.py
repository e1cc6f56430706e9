"""Exact homological algebra over standard graded Artinian local algebras."""

from .linalg import Field, GF101, QQ, Subspace, kernel_basis, rank, rref
from .ring import (
    GradedRing,
    NotArtinianError,
    PresentationError,
    RingPresentation,
    build_ring,
    ring_from_strings,
)
from .modules import (
    FiniteModule,
    ModuleError,
    ModuleMap,
    canonical_module,
    free_module,
    from_presentation,
    hom_into_ring,
    hom_over_R,
    matlis_dual,
    presentation_of,
    quotient_module,
    random_module,
    random_presentation,
    regular_module,
    residue_field,
    submodule_module,
    syzygy,
    tensor_over_R,
    truncated_cokernel,
    wedge_image,
)
from .homology import (
    Resolution,
    betti_numbers,
    complete_betti,
    ext_dim,
    ext_dim_direct,
    koszul_test,
    resolve,
    tor_dim,
    tor_induced_k,
    tor_vanishes,
)
from .instancefile import ParseError, parse_instance, serialize_instance
from .theorems import (
    Instance,
    Verdict,
    agp_example,
    canned_corpus,
    check,
    check_suite,
    registry,
)
from .explorer import explore

__version__ = "0.1.0"
