"""Commutator-based spectral discretization of axisymmetric surfaces."""

from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateMetricError,
    DenseSizeError,
    DomainError,
    NCLaplaceError,
    NotRevolutionSurfaceError,
    ResolutionError,
    SingularPointError,
    SolverConvergenceError,
)
from .nc_laplacian import (
    OffsetBlock,
    QuantizedOperatorSet,
    SpectrumReport,
    apply_laplacian,
    assemble_dense_superoperator,
    block_decompose,
    build_gamma,
    build_operator_set,
    convergence_study,
    gamma_inverse,
    spectrum,
)
from .quantization import (
    AxiomDefects,
    CoordinateMatrices,
    QuantizationGrid,
    axiom_defects,
    build_grid,
    coordinate_matrices,
    default_beta,
    dequantize,
    dump_coordinate_matrices,
    quantize,
    quantize_banded,
    quantize_diagonals,
    spectral_norm,
    trace_functional,
)
from .reference_oracle import (
    ClassicalSpectrum,
    SpectrumEntry,
    analytic_sphere_spectrum,
    cluster_multiplicities,
    galerkin_spectrum,
    reference_for,
    revolution_spectrum,
    revolution_spectrum_richardson,
)
from .surface import (
    BandLimitedFunction,
    Profile,
    SurfaceDescriptor,
    SurfacePoint,
    bracket_function,
    constant_profile,
    ellipsoid,
    laplace_beltrami_apply,
    load_surface_config,
    metric_sqrt_det,
    pointwise_product,
    poisson_bracket,
    sphere,
    spheroid,
    surface_area,
    surface_from_spec,
    surface_integral,
)

__version__ = "0.1.0"
