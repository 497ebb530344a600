"""Exact-arithmetic workbench for suspension-sequence bookkeeping.

Combinatorial James constructions and their Hopf invariants, integral
homology via Smith normal form, Grothendieck-Witt and Milnor-Witt symbol
calculus over concrete fields, and the EHP differential calculator.
"""

from .errors import (
    CapExceeded,
    DomainError,
    ExprParseError,
    NormalFormUnavailable,
    NoTensorRule,
    NotRegularValue,
)
from .simplicial import (
    Simplex,
    SMap,
    SSet,
    build_sphere,
    collapse,
    compose,
    degenerate,
    face,
    identity_map,
    point,
    product,
    simplex_token,
    smash,
    suspension,
    wedge,
)
from .homology import (
    HomologyGroup,
    IntegerMatrix,
    euler_characteristic,
    homology_to_doc,
    normalized_chain_complex,
    reduced_homology,
    smith_normal_form,
)
from .james import (
    TRUNCATION_CAP,
    JamesWord,
    cartan_word_check,
    james_census,
    james_hopf_letters,
    james_hopf_map,
    james_hopf_word,
    james_map,
    james_quotient,
    james_truncation,
    james_words,
    smash_power,
    smash_power_class,
    suspension_unit_E,
    word_token,
)
from .gw import (
    Field,
    GWElement,
    SquareClass,
    WittClass,
    exchange_class,
    finite_odd,
    fundamental_ideal_power,
    gw_add,
    gw_equal,
    gw_invariants,
    gw_make,
    gw_mul,
    gw_neg,
    gw_one,
    gw_scale,
    gw_sub,
    gw_zero,
    hyperbolic,
    pfister_form,
    quadratically_closed,
    rationals,
    real_closed,
    square_class,
    witt_class,
    witt_ring_table,
)
from .kmw import (
    KMWNormalForm,
    KMWSymbol,
    SheafExpr,
    aone_tensor,
    contraction,
    kmw_add,
    kmw_bracket,
    kmw_epsilon,
    kmw_equal,
    kmw_eta,
    kmw_form,
    kmw_hyperbolic,
    kmw_mul,
    kmw_neg,
    kmw_normal_form,
    kmw_power,
    kmw_scalar,
    kmw_scale,
    kmw_sub,
    kmw_zero,
    rational_decomposition,
    sheaf_token,
)
from .ehp import (
    EHPReport,
    SphereBidegree,
    classical_hp_degree,
    degree_by_signed_preimages,
    ehp_sequence_report,
    exchange_degree,
    hp_differential,
    hp_differential_variant,
    hp_invariant_report,
    known_results_lookup,
    known_results_table,
    signed_preimages,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
