"""Leakage-failure probability analysis and resource allocation for
short-packet secure transmissions in the finite-blocklength regime."""

from .bounds import (
    ExpBoundCoeffs,
    am_gm_upper,
    approx_lfp,
    exp_bound_coeffs,
    one_minus_q_upper,
    q_upper,
)
from .constrained import (
    ExponentialGain,
    FadingSpec,
    GaussQuadrature,
    MonteCarlo,
    PointMassGain,
    Thresholds,
    expected_lfp,
    feasible_m_interval,
    feasible_m_interval_statistical,
    maximize_throughput,
    solve_blocklength,
    solve_blocklength_statistical,
    solve_fixed_leakage,
)
from .convexity import (
    ConcavityReport,
    check_concavity,
    omega_hessian,
    omega_hessian_fd,
    omega_hessian_mgamma,
    rate_threshold,
    rate_threshold_sweep_max,
)
from .core import (
    ChannelSpec,
    EveModel,
    ReliabilityPair,
    Resources,
    Scenario,
    capacity,
    dispersion,
    fbl_error,
    lfp,
    lfp_at,
    max_rate,
    omega,
    q,
    q_inv,
    secrecy_rate,
    snr,
)
from .errors import (
    ConfigError,
    DegenerateChannelError,
    InfeasibleError,
    TrendViolationError,
)
from .multi_eve import scenario_lfp, solve_multi, telescope_leakage
from .oracle import GridSpec, exhaustive_min_lfp, golden_section_max
from .solver import AllocationResult, SolveTrace, SolverConfig

__version__ = "0.1.0"

__all__ = [
    "AllocationResult", "ChannelSpec", "ConcavityReport", "ConfigError",
    "DegenerateChannelError", "EveModel", "ExpBoundCoeffs",
    "ExponentialGain", "FadingSpec", "GaussQuadrature", "GridSpec",
    "InfeasibleError", "MonteCarlo", "PointMassGain", "ReliabilityPair",
    "Resources", "Scenario", "SolveTrace", "SolverConfig", "Thresholds",
    "TrendViolationError", "am_gm_upper", "approx_lfp", "capacity",
    "check_concavity", "dispersion", "exhaustive_min_lfp",
    "exp_bound_coeffs", "expected_lfp", "fbl_error", "feasible_m_interval",
    "feasible_m_interval_statistical", "golden_section_max", "lfp", "lfp_at",
    "max_rate", "maximize_throughput", "omega",
    "omega_hessian", "omega_hessian_fd", "omega_hessian_mgamma",
    "one_minus_q_upper", "q", "q_inv", "q_upper", "rate_threshold",
    "rate_threshold_sweep_max", "scenario_lfp", "secrecy_rate", "snr",
    "solve_blocklength", "solve_blocklength_statistical",
    "solve_fixed_leakage", "solve_multi", "telescope_leakage",
]
