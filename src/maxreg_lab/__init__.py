"""Numerical laboratory for maximal parabolic regularity on the torus.

The package is organised in layers: :mod:`maxreg_lab.spectral` (Fourier
fields and multipliers), :mod:`maxreg_lab.norms` (mixed space-time norms
and continuum profiles), :mod:`maxreg_lab.maxreg` (linear solvers and
regularity diagnostics), :mod:`maxreg_lab.picard` (contraction-mapping
machinery), :mod:`maxreg_lab.problems` (semilinear heat and
Navier-Stokes experiments) and :mod:`maxreg_lab.harness` (configs,
registry and result files).
"""

from .spectral import (
    FourierMultiplier,
    SpectralField,
    TorusGrid,
    apply_multiplier,
    constant_multiplier,
    divergence,
    heat_semigroup_apply,
    helmholtz_project,
    laplacian_multiplier,
    momentum_forcing,
    pointwise_power_nonlinearity,
    resolvent_scalar_multiplier,
    sector_multiplier,
    tensor_divergence,
)
from .norms import (
    BesovHeatResult,
    DivergentNormError,
    InverseSqrtRadialProfile,
    MixedNormParams,
    ParabolicGaussianProfile,
    ScalingLaw,
    TimeGrid,
    Trajectory,
    WeightParams,
    besov_heat_norm,
    bochner_mixed_norm,
    continuum_mixed_norm,
    heat_extension,
    log_time_grid,
    nlhe_scaling_law,
    ns_scaling_law,
    scaling_transform,
    spatial_lq_norm,
    uniform_time_grid,
)
from .maxreg import (
    HormanderReport,
    LinearProblem,
    MaxRegReport,
    RBoundEstimate,
    ResolventProbe,
    de_simon_multiplier_solve,
    estimate_maxreg_constant,
    hormander_check,
    multiplier_sup_norm,
    rbound_estimate,
    resolvent_via_maxreg,
    solve_linear_duhamel,
)
from .picard import (
    FixedPointProblem,
    PicardCertificate,
    run_picard,
    smallness_gate,
)
from .problems import (
    ExistenceReport,
    NlheProblem,
    NsProblem,
    ScalingReport,
    SmoothingReport,
    UniquenessReport,
    criticality_check,
    default_smoothing_radii,
    existence_sweep,
    max_node_divergence,
    measured_lipschitz_M,
    nlhe_rhs_map,
    nonlinearity_lipschitz_check,
    ns_rhs_map,
    random_mean_free_field,
    scaling_invariance_test,
    smoothing_estimate_check,
    taylor_green_field,
    uniqueness_bootstrap,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    experiment_names,
    load_config,
    run_experiment,
    synthetic_forcing_ensemble,
    write_results,
)

__version__ = "0.1.0"
