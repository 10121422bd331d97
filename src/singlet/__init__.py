"""Exact calculator for singlet-algebra module categories and their
cyclic triplet orbifolds: classification data, tensor products, duals,
gradings, twist and monodromy phases, and truncated graded characters,
all in exact rational arithmetic."""

from .characters import (
    CharacterSum,
    QSeries,
    ch_expr,
    ch_vir_irr,
    partition_numbers,
)
from .errors import (
    DomainError,
    ExprSemanticError,
    ExprSyntaxError,
    NonSemisimpleTwist,
    NotLocal,
    NotProjectiveClass,
    OracleSubtractionFailure,
    SingletError,
    UnsupportedSpecies,
)
from .fusion import (
    chebyshev_fuse,
    fuse,
    k_product,
    projective_decompose,
)
from .modules import (
    FockAtypical,
    FockTypical,
    GenVerma,
    ModuleExpr,
    MSimple,
    Proj,
    dual,
    k_class,
    label,
    loewy_layers,
    lowest_weight,
    monodromy_phase_with_m21,
    normalize_atom,
    t_grade,
    twist_phase,
    verma_quotient_factors,
    virasoro_induce,
)
from .orbifold import (
    OrbifoldParams,
    RProj,
    VTypical,
    WSimple,
    induce,
    is_local,
    list_simples,
    orbifold_char_expr,
    orbifold_fuse,
    orbifold_projective_cover,
)
from .parser import parse_expr
from .weights import (
    Params,
    UnitPhase,
    allowed_neighbor_weights,
    conformal_weight,
    h0_squared,
    h_rs,
)

__version__ = "0.1.0"
