"""Open-end CUSUM and page-CUSUM monitoring for mean shifts.

The package covers the full pipeline: data generation (GARCH(1,1) location
model), online detectors with the curved boundary g(m, k), Monte Carlo
critical values from the null limit functionals, the delay-time
normalizations a_m/b_m with their regime classification and limit laws, and
a replication harness producing plot-ready CSV output.
"""

from .asymptotics import (AsymptoticNormalization, ConvergenceError, LimitLaw,
                          compute_N, compute_b_m, compute_d2,
                          compute_normalization, limit_cdf, limit_cdf_upper,
                          solve_a_m, solve_d1)
from .datagen import Garch11Spec, StreamSpec, generate_garch11, generate_stream
from .detectors import (DegenerateTrainingError, Monitor, StoppingResult,
                        TrainingSummary, boundary_g, detector_stat,
                        run_monitor, summarize_training)
from .experiments import (DensityEstimate, ReplicationRecord, emit_table1,
                          empirical_size, kde, run_replications,
                          simulate_to_dir)
from .model import (CaseLabel, ChangeScenario, MonitoringParams,
                    ValidationError, classify_case, compute_eta,
                    eta_zero_beta, resolve_kstar, validate_scenario)
from .rng import rng_stream
from .wiener import (CriticalValueEstimate, REFERENCE_CRITICAL_VALUES,
                     estimate_critical_value, functional_ordinary,
                     functional_page, resolve_critical_value,
                     sample_wiener_path, simulate_functional_values)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticNormalization", "CaseLabel", "ChangeScenario",
    "ConvergenceError", "CriticalValueEstimate", "DegenerateTrainingError",
    "DensityEstimate", "Garch11Spec", "LimitLaw", "Monitor",
    "MonitoringParams", "REFERENCE_CRITICAL_VALUES", "ReplicationRecord",
    "StoppingResult", "StreamSpec", "TrainingSummary", "ValidationError",
    "boundary_g", "classify_case", "compute_N", "compute_b_m",
    "compute_d2", "compute_eta", "compute_normalization", "detector_stat",
    "emit_table1", "empirical_size", "estimate_critical_value",
    "eta_zero_beta", "functional_ordinary", "functional_page",
    "generate_garch11", "generate_stream", "kde", "limit_cdf",
    "limit_cdf_upper", "resolve_critical_value",
    "resolve_kstar", "rng_stream", "run_monitor", "run_replications",
    "sample_wiener_path", "simulate_functional_values", "simulate_to_dir",
    "solve_a_m", "solve_d1", "summarize_training", "validate_scenario",
]
