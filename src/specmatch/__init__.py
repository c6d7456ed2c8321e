"""Spectral radius vs. (fractional) matching number: computation, extremal
families, certificates, and exhaustive small-graph verification."""

from .halfint import HalfIntegral
from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    complete,
    components,
    empty,
    from_edge_list,
    from_edge_list_text,
    from_graph6,
    is_connected,
    join,
    min_degree,
    to_graph6,
    union,
)
from .roots import NoRealRootError, largest_real_root
from .spectral import (
    ConvergenceError,
    QuotientMatrix,
    RhoResult,
    adjacency_quotient,
    char_poly_f_coeffs,
    char_poly_g_coeffs,
    charpoly_int,
    exact_char_poly,
    poly_divmod,
    quotient_spectral_radius,
    spectral_radius,
)
from .matching import (
    FpmPart,
    FpmPartition,
    FractionalMatching,
    MatchingResult,
    Transversal,
    fpm_partition,
    fractional_matching_number,
    fractional_transversal,
    matching_number,
    optimal_fractional_matching,
)
from .extremal import (
    RegimePrediction,
    predict,
    rho_join_formula,
    theta_cubic,
    theta_n,
)
from .certify import (
    CertificateRecord,
    CertificateReport,
    SoundnessError,
    certify_all,
)
from .verify import (
    audit_duality,
    audit_structures,
    cross_check_matching_implementations,
    verify_certificates,
    verify_theorem,
    verify_tie_class_n8,
)

__version__ = "0.1.0"
