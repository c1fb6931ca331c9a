"""Spectral simulator and verification harness for the Schrodinger flow on S^d."""

from .harmonics import (
    associated_legendre,
    eigenspace_dim,
    eigenvalues_upto,
    gegenbauer,
    surface_area,
    zonal_basis,
    zonal_kernel,
)
from .grids import (
    CoefficientTable,
    ResourceLimitError,
    SphereGrid,
    ZonalGrid,
    build_sphere_grid,
    build_zonal_grid,
    forward_sht,
    forward_zonal,
    grid_for,
    integrate,
    inverse_sht,
    inverse_zonal,
    pole_values,
)
from .spectral import (
    SpaceTimeField,
    TimeGrid,
    fractional_weight,
    nyquist_time_grid,
    project,
    propagate,
    random_field,
    synthesize_history,
)
from .norms import (
    TimeResolutionError,
    l2t_profile_exact,
    lp_norm,
    mixed_norm,
    sobolev_norm,
    triebel_lizorkin_norm,
)
from .experiments import (
    ExponentFit,
    SweepConfig,
    fit_loglog,
    kappa_p,
    kappa_pq,
    make_family,
    p_critical,
    projection_ratio_sweep,
    sharpness_sweep,
    strichartz_ratio,
)
from .potential import (
    DivergenceError,
    PicardReport,
    PotentialSpec,
    PotentialTerm,
    apply_phi,
    contraction_check,
    duhamel_apply,
    picard_solve,
    x_norm,
)

__version__ = "0.1.0"
