import importlib
import importlib.util
import os

import pytest

from pagecusum import (ChangeScenario, Garch11Spec, MonitoringParams,
                       experiments, wiener)
from pagecusum.rng import BOOTSTRAP_STREAM

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("module, attr", _tracing().TARGETS)
def test_traced_name_exists(module, attr):
    # the benchmark's tracer wraps each of these names and fails on a
    # missing one
    assert hasattr(importlib.import_module(f"pagecusum.{module}"), attr)


def test_traced_study_records_its_layer_spans(tmp_path):
    # a wrapped name only records spans if the study calls it through its
    # module global, so a study must still open a span for each layer
    params = MonitoringParams(m=50, horizon_factor=1.0)
    scenario = ChangeScenario.at_kstar(2.0, 3)
    garch = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3, burn_in=10)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        experiments.simulate_to_dir(params, scenario, garch, 20, 1.69, 1.64,
                                    seed=5, out_dir=str(tmp_path))
    finally:
        tracer.uninstall()
    for name in ("run_replications", "write_records_csv",
                 "write_density_csv", "densities_from_records"):
        assert tracer.select(f"experiments.{name}"), name
    assert len(tracer.select("experiments.write_density_csv")) == 3


def test_traced_size_run_records_generation_spans():
    # the tracer wraps generate_garch11_batch only as an experiments global
    # and names a span after the defining module, so this span exists only
    # if location_paths calls the global; without it
    # datagen.garch_batch_ns and datagen.samples_generated read 0
    params = MonitoringParams(m=50, horizon_factor=12.0)
    garch = Garch11Spec(omega=0.5, alpha_g=0.2, beta_g=0.3, burn_in=10)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        experiments.empirical_size(params, garch, 6, 1.69, seed=5)
    finally:
        tracer.uninstall()
    for name in ("experiments.empirical_size",
                 "datagen.generate_garch11_batch"):
        assert tracer.select(name), name
    # the training block, then at least the first chunk of the stream
    assert len(tracer.select("datagen.generate_garch11_batch")) >= 2


def test_traced_estimate_records_simulation_and_stream_spans():
    # the tracer wraps simulate_functional_values and rng_stream only as
    # wiener globals, so the critvals layer times (wiener.simulate_s,
    # rng.stream_us, wiener.paths_drawn) exist only if the estimate and its
    # fan-out call them there: one stream per path, then the bootstrap's
    reps, seed = 100, 4
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        wiener.estimate_critical_value(0.25, 0.1, "one_sided", "page",
                                       reps=reps, T=32, seed=seed)
    finally:
        tracer.uninstall()
    assert len(tracer.select("wiener.estimate_critical_value")) == 1
    assert tracer.select("wiener.simulate_functional_values")
    tags = [span[7] for span in tracer.select("rng.rng_stream")]
    assert sorted(tags) == [[seed, i] for i in range(reps)] + \
        [[seed, BOOTSTRAP_STREAM]]
