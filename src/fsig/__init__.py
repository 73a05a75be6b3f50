"""Frobenius splitting numbers, F-signature, finite covers, and order bounds.

Two computational backends share one vocabulary:

- an exact lattice backend for simplicial toric and cyclic quotient
  singularities (``toric``), where splitting numbers are certified
  window counts and the F-signature is a closed-form rational number;
- a sequence backend for hypersurface and regular presentations
  (``frobenius``), where splitting numbers come from colon-ideal
  lengths and the limit is only ever estimated.

On top of these sit finite covers with trace maps and ramification
divisors (``covers``) and quantitative consequences: etale fundamental
group order bounds, purity thresholds, and divisor class index bounds
(``bounds``).  ``serialize`` and ``cli`` give the whole thing a JSON
surface.
"""

from .bounds import (
    BoundReport,
    IndexReport,
    PurityVerdict,
    class_order,
    cyclic_index_cover,
    etale_cover_search,
    index_bound,
    pi1_order_bound,
    purity_check,
    purity_from_value,
    veronese_bound,
)
from .covers import (
    ChainReport,
    CoverConstructionError,
    CoverDescriptor,
    DoublingReport,
    NonEffectivePairError,
    TraceMap,
    TraceReport,
    TransformationReport,
    VerificationFailure,
    chain_simulation,
    compose_covers,
    count_trace_summands,
    doubling_check,
    identity_cover,
    pullback_divisor,
    pullback_pair,
    quotient_cover,
    ramification_divisor,
    root_cover,
    verify_note_trace,
    verify_transformation,
)
from .frobenius import (
    CEIL_PE_MINUS_1,
    FLOOR_PE,
    BudgetExceeded,
    FSignature,
    PairDivisor,
    RingPresentation,
    SplittingRecord,
    SplittingSequence,
    ctrick_gap_sequence,
    fsig_sequence,
    fsig_value,
    hk_length_sequence,
    perturbed_limit_check,
    rounding_gap_check,
    sequence_diagnostics,
    sfr_witness,
    splitting_ideal,
    splitting_number,
)
from .ideals import Ideal, colon_ideal, frobenius_power, quotient_length
from .poly import ParseError, Polynomial, parse_polynomial
from .toric import (
    FreeClassCertificate,
    RationalCone,
    SimplicialityError,
    ToricRing,
    TorusQDivisor,
    canonical_divisor,
    quotient_singularity,
    toric_fsig_exact,
    toric_splitting_certificates,
    toric_splitting_number,
)

__all__ = [
    "BoundReport",
    "BudgetExceeded",
    "CEIL_PE_MINUS_1",
    "ChainReport",
    "CoverConstructionError",
    "CoverDescriptor",
    "DoublingReport",
    "FLOOR_PE",
    "FSignature",
    "FreeClassCertificate",
    "Ideal",
    "IndexReport",
    "NonEffectivePairError",
    "PairDivisor",
    "ParseError",
    "Polynomial",
    "PurityVerdict",
    "RationalCone",
    "RingPresentation",
    "SimplicialityError",
    "SplittingRecord",
    "SplittingSequence",
    "ToricRing",
    "TorusQDivisor",
    "TraceMap",
    "TraceReport",
    "TransformationReport",
    "VerificationFailure",
    "canonical_divisor",
    "chain_simulation",
    "class_order",
    "colon_ideal",
    "compose_covers",
    "count_trace_summands",
    "cyclic_index_cover",
    "doubling_check",
    "etale_cover_search",
    "frobenius_power",
    "ctrick_gap_sequence",
    "fsig_sequence",
    "fsig_value",
    "hk_length_sequence",
    "identity_cover",
    "index_bound",
    "parse_polynomial",
    "perturbed_limit_check",
    "pi1_order_bound",
    "pullback_divisor",
    "pullback_pair",
    "purity_check",
    "purity_from_value",
    "quotient_cover",
    "quotient_length",
    "quotient_singularity",
    "ramification_divisor",
    "root_cover",
    "rounding_gap_check",
    "sequence_diagnostics",
    "sfr_witness",
    "splitting_ideal",
    "splitting_number",
    "toric_fsig_exact",
    "toric_splitting_certificates",
    "toric_splitting_number",
    "verify_note_trace",
    "verify_transformation",
    "veronese_bound",
]

__version__ = "1.0.0"
