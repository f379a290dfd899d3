"""Open-end CUSUM and page-CUSUM monitoring for mean shifts.

The package covers the full pipeline: data generation (GARCH(1,1) location
model), online detectors with the curved boundary g(m, k), Monte Carlo
critical values from the null limit functionals, the delay-time
normalizations a_m/b_m with their regime classification and limit laws, and
a replication harness producing plot-ready CSV output.

A public name's module is imported when the name is first used, so
`import pagecusum` alone loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "asymptotics": "AsymptoticNormalization ConvergenceError LimitLaw "
                   "compute_N compute_b_m compute_d2 compute_normalization "
                   "limit_cdf limit_cdf_upper solve_a_m solve_d1",
    "datagen": "Garch11Spec",
    "detectors": "DegenerateTrainingError Monitor StoppingResult "
                 "TrainingSummary boundary_g run_monitor summarize_training",
    "experiments": "DensityEstimate ReplicationRecord emit_table1 "
                   "empirical_size kde location_paths run_replications "
                   "simulate_to_dir",
    "model": "CaseLabel ChangeScenario MonitoringParams ValidationError "
             "classify_case compute_eta eta_zero_beta resolve_kstar "
             "validate_scenario",
    "rng": "rng_stream",
    "wiener": "CriticalValueEstimate REFERENCE_CRITICAL_VALUES "
              "estimate_critical_value functional_ordinary functional_page "
              "resolve_critical_value sample_wiener_path "
              "simulate_functional_values",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value
