"""Frobenius splitting numbers, F-signature, finite covers, and order bounds.

Two computational backends share one vocabulary, the ring-kind methods
``splitting_number(delta, e, deadline)`` and ``exact_fsig(delta)`` (None
on a presentation), by which ``fsig_sequence`` and ``fsig_value`` pick one:

- an exact lattice backend for simplicial toric and cyclic quotient
  singularities (``toric``), where splitting numbers are certified
  window counts and the F-signature is a closed-form rational number;
- a sequence backend for hypersurface and regular presentations
  (``frobenius``), where splitting numbers are ranks of the Fedder twist
  on P/m^[q] (Jordan types for separated hypersurfaces and, through a
  normal form read off ranks, quadratic forms at odd p, with monomial
  pairs or one linear pair component on a quadratic form, ``sebastiani``),
  cross-checked by the Groebner length q^n - lambda(P/(m^[q], g)), and
  the limit is only ever estimated.

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
    LevelRefused,
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
    splitting_number,
)
from .ideals import Ideal, frobenius_power, quotient_length, spoly
from .poly import ParseError, Polynomial, parse_polynomial
from .toric import (
    FreeClassCertificate,
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
    "LevelRefused",
    "NonEffectivePairError",
    "PairDivisor",
    "ParseError",
    "Polynomial",
    "PurityVerdict",
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
    "splitting_number",
    "spoly",
    "toric_fsig_exact",
    "toric_splitting_certificates",
    "toric_splitting_number",
    "verify_note_trace",
    "verify_transformation",
    "veronese_bound",
]

__version__ = "1.0.0"
