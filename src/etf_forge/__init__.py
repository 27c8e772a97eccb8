"""etf-forge: exact-arithmetic construction and certification of
equiangular tight frames, Hadamard matrices, and the block designs that
generate them.

All verification is tolerance-free: matrices live over cyclotomic or real
quadratic fields, every identity is checked exactly, and every generator
routes its output through the corresponding verifier.  Values are immutable
and all operations are pure functions, so everything here is safe to share
across threads.
"""

from .errors import (
    CatalogError,
    DesignError,
    DomainError,
    EtfForgeError,
    FrameError,
    HadamardError,
    InputError,
)
from .scalars import (
    CycloElem,
    QuadElem,
    rational_sqrt,
)
from .matrices import (
    RATIONAL,
    ExactMatrix,
    cyclo_domain,
    kron,
    matmul,
    quad_domain,
    scaled_identity,
    vstack,
)
from .designs import (
    Design,
    DesignParams,
    PermutationLift,
    QsdCertificate,
    SrgParams,
    all_pairs_design,
    complement_design,
    etf_params_from_srg,
    fano_plane,
    lift_permutation,
    round_robin_resolution,
    srg_params_from_qsd,
    verify_bibd,
    verify_qsd,
    verify_srg,
)
from .hadamard import (
    AbelianGroup,
    HadamardMatrix,
    char_table,
    dft,
    hadamard_of_size,
    paley_one,
    sylvester,
    verify_hadamard,
)
from .frames import (
    EtfCertificate,
    Frame,
    NaimarkPair,
    certify_etf,
    certify_hadamard_etf,
    gram,
    gram_to_hadamard,
    hadamard_to_gram,
    verify_naimark_pair,
    welch_bound_sq,
)
from .constructions import (
    DifferenceSet,
    KirkmanInputs,
    SteinerInputs,
    flat_regular_simplex,
    harmonic_etf,
    kirkman_etf,
    standard_kirkman_inputs,
    steiner_etf,
    steiner_naimark,
    tensor_etf,
    verify_difference_set,
)
from .qsd_bridge import (
    FeasibilityReport,
    FlatEtfExtraction,
    GerzonReport,
    QsdEtfLink,
    canonical_sign,
    etf_from_qsd,
    flat_family_qsd_params,
    flat_feasibility,
    gerzon_bounds,
    qsd_frame_scalars,
    qsd_from_flat_etf,
    qsd_gives_etf,
    qsd_params_from_rbibd,
)
from .catalog import Catalog
from .recipes import Artifact, recipe, replay

__version__ = "0.1.0"
