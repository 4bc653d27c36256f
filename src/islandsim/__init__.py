"""Simulation and numerical analytics for interacting island diffusions."""

from .coefficients import (
    CoefficientSpec,
    CustomDiffusion,
    CustomDrift,
    DeclaredStructure,
    DomainInterval,
    LinearDiffusion,
    LinearDrift,
    Logistic,
    PiecewisePolynomial,
    PowerDiffusion,
    PowerDrift,
    SelectionMutation,
    ValidationReport,
    WrightFisher,
    validate_assumptions,
)
from .exceptions import (
    ConfigError,
    DivergenceError,
    DomainError,
    IslandSimError,
    RegimeError,
    SolverError,
)
from .analytics import (
    QuadratureConfig,
    RhoSolution,
    classify_regime,
    extinction_criterion,
    extinction_probability,
    gamma_rho_cdf,
    gamma_rho_pdf,
    logistic_criterion,
    sample_gamma_rho,
    scale_density,
    scale_function,
    solve_rho,
    speed_mass,
)
from .sde import (
    MigrationMatrix,
    Path,
    TimeGrid,
    export_path_csv,
    sample_system_stats,
    simulate_single,
    simulate_system,
    single_batch_stats,
)
from .virgin_island import (
    VirginIslandTree,
    build_tree,
    export_spectrum_csv,
    export_tree_csv,
    sample_excursion,
    sample_tree_stats,
)
from .mean_field import (
    ParticleEnsemble,
    duality_gap,
    simulate_mckean_vlasov,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    ExpDecreasingConcave,
    MixedMonomial,
    SmoothedStep,
    run_analyze,
    run_comparison,
    run_convergence,
    run_duality,
    run_identity_suite,
    tent,
)
from .config import build_spec, load_config
from .cli import cli_main

__version__ = "0.1.0"
