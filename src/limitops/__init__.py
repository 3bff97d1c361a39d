"""Window-based diagnostics for band operators on lattices of bounded
geometry: coverings and partitions of unity, the band-dominated diagnostic,
limit operators along declared sequences, and compactness / Fredholm /
essential-spectrum reports built on them."""

from .errors import (
    InvalidConfigError,
    InvalidPointError,
    LimitOpsError,
    ScopeError,
    TruncationError,
    UnsupportedConstructionError,
)
from .space import (
    Covering,
    PartitionOfUnity,
    Space,
    Window,
    build_covering,
    build_partition,
    geometry_profile,
    separated_net,
)
from .expr import Expression
from .fields import (
    AndPredicate,
    ConstantField,
    EmptyPredicate,
    ExpressionField,
    ExpressionPredicate,
    Field,
    FiniteSetPredicate,
    FullPredicate,
    HalfspacePredicate,
    IndicatorField,
    NotPredicate,
    PeriodicField,
    ProductField,
    ScaledField,
    SeededRandomField,
    SublatticePredicate,
    SumField,
    TableField,
)
from .operator import (
    BandOperator,
    bdo_diagnostic,
    commutator_stack_norm,
    identity,
    laplacian_stencil,
    localized_norm,
    multiplication,
    restricted_norm,
    shift_operator,
    window_norm,
)
from .shifts import (
    DivergenceReport,
    ExplicitSequence,
    LimitOperator,
    Ray,
    Subsequence,
    conjugate,
    limit_algebra_check,
    limit_operator,
    limit_set,
    subsequence_targeting,
)
from .descriptors import (
    field_from_descriptor,
    operator_from_descriptor,
    predicate_from_descriptor,
    sequence_from_descriptor,
    space_from_descriptor,
)
from .subspace import SubspaceProjection, commutator_with_projection, hat, toeplitz
from .fredholm import (
    FAMILY_CAVEAT,
    InvertibilityEstimate,
    SpectrumEstimate,
    compactness_test,
    ess_norm_estimate,
    essential_spectrum_estimate,
    floquet_spectrum,
    fredholm_test,
    hausdorff_distance,
    invertibility_estimate,
    lower_norm_localized,
    lower_norm_window,
    nu_grid_indicator,
    spectrum_estimate_for,
    symbol_spectrum,
)

__version__ = "0.1.0"
