"""Group-sparse zero-attracting LMS with online parameter adaptation."""

__version__ = "0.1.0"

from .groups import (
    GZA,
    GRZA,
    AttractorMode,
    GroupPartition,
    attractor_direction,
    attractor_term,
    beta_weights,
    expand_group_vector,
    group_norms,
    l12_norm,
    log_sum_penalty,
)
from .filters import (
    DivergenceError,
    FilterConfig,
    FilterState,
    initial_state,
    predict,
    step,
)
from .varparam import (
    ModelError,
    MomentEstimates,
    VpState,
    solve_optimal_params,
    vp_iteration,
)
from .signals import (
    AR1GaussianMixture,
    PlantSchedule,
    SignalStream,
    WhiteGaussian,
    benchmark_plants,
    benchmark_schedule,
    gen_ar1_mixture,
    gen_white_gaussian,
    scalar_stream,
    simulate_plant,
    stationary_power,
)
from .config import (
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    builtin_config,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from .harness import (
    LearningCurve,
    emit_curves,
    experiment_schedule,
    run_experiment,
    stage_windows,
    steady_state_db,
)
from .oracles import (
    EnsembleMoments,
    ModelValidationReport,
    ensemble_moments,
    finite_diff_subgradient,
    grid_minimize_quadratic,
    validate_model_recursion,
)
