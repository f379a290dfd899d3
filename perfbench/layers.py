"""Per-layer measurements of the traced run and the metrics derived from them.

Section names tie spans to what produced them: "<workload>#<i>" is the i-th
traced round of the workload under test, "<workload>" one traced round of
another workload, and "layer" the direct calls below, each timed as a span
around a fixed batch of calls at the shape of the workload that layer serves.
"""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from pagecusum import asymptotics, cli, detectors, model, rng, wiener
from pagecusum.model import ChangeScenario, MonitoringParams

import workloads as wl

REPEATS = 5

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "rng.normal_ns": ("ns/sample", "lower"),
    "rng.stream_us": ("us/stream", "lower"),
    "wiener.path_ns": ("ns/point", "lower"),
    "wiener.ordinary_ns": ("ns/point", "lower"),
    "wiener.page_ns": ("ns/point", "lower"),
    "wiener.simulate_s": ("s", "lower"),
    "wiener.estimate_self_s": ("s", "lower"),
    "wiener.paths_drawn": ("count", "lower"),
    "wiener.path_reuse": ("ratio", "higher"),
    "wiener.resolve_us": ("us/call", "lower"),
    "datagen.garch_batch_ns": ("ns/sample", "lower"),
    "datagen.samples_generated": ("count", "lower"),
    "datagen.samples_used": ("count", "lower"),
    "datagen.useful_ratio": ("ratio", "higher"),
    "detectors.scan_ns": ("ns/obs", "lower"),
    "detectors.online_us": ("us/obs", "lower"),
    "detectors.step_p99_us": ("us", "lower"),
    "detectors.boundary_scalar_us": ("us/call", "lower"),
    "experiments.replications_s": ("s", "lower"),
    "experiments.size_s": ("s", "lower"),
    "experiments.kde_ms": ("ms", "lower"),
    "experiments.write_ms": ("ms", "lower"),
    "experiments.output_bytes": ("bytes", "lower"),
    "experiments.table1_ms": ("ms", "lower"),
    "asymptotics.solve_a_m_us": ("us/call", "lower"),
    "asymptotics.normalization_us": ("us/call", "lower"),
    "model.classify_case_us": ("us/call", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_rss_mb": ("MiB", "lower"),
    "cli.dispatch_ms": ("ms", "lower"),
    "cli.call_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# counters computed from the workload's outputs; 0 on workloads whose layer
# does no such work
COUNTERS = ("datagen.samples_used", "experiments.output_bytes")

_IMPORT_PROBE = """
import json, time
t0 = time.perf_counter()
import pagecusum
dt = time.perf_counter() - t0
rss = 0.0
with open("/proc/self/status") as fh:
    for line in fh:
        if line.startswith("VmRSS:"):
            rss = int(line.split()[1]) / 1024.0
print(json.dumps({"import_s": dt, "rss_mb": rss}))
"""


def _dur(span):
    return (span[5] - span[4]) * 1e-9


def _per_unit(tracer, name, scale, section="layer"):
    """Median over spans of duration per unit, times scale."""
    return statistics.median(_dur(s) / s[6] * scale
                             for s in tracer.select(name, section))


def _batch(tracer, name, units, fn):
    for _ in range(REPEATS):
        with tracer.span(name, units):
            fn()


def measure_layers(tracer, work_dir, seed):
    """Direct calls into each layer, one span per batch (section "layer")."""
    tracer.section = "layer"
    T = wl.Critvals.T
    gens = [rng.rng_stream(seed, i) for i in range(8 * REPEATS)]
    it = iter(gens)
    _batch(tracer, "rng.standard_normal", 8 * T,
           lambda: [next(it).standard_normal(T) for _ in range(8)])
    _batch(tracer, "rng.rng_stream", 256,
           lambda: [rng.rng_stream(seed, i) for i in range(256)])
    gen = rng.rng_stream(seed, 0)
    _batch(tracer, "wiener.sample_wiener_path", 8 * T,
           lambda: [wiener.sample_wiener_path(T, gen) for _ in range(8)])
    paths = [wiener.sample_wiener_path(T, gen) for _ in range(8)]
    _batch(tracer, "wiener.functional_ordinary", 8 * T,
           lambda: [wiener.functional_ordinary(p, 0.0) for p in paths])
    _batch(tracer, "wiener.functional_page", 8 * T,
           lambda: [wiener.functional_page(p, 0.0) for p in paths])

    # a cache directory where the matching file sorts last
    cache = os.path.join(work_dir, "critvals_cache")
    os.makedirs(cache, exist_ok=True)
    for i, gamma in enumerate((0.05, 0.1, 0.15, 0.2, 0.3, 0.35, 0.4, 0.25)):
        est = {"gamma": gamma, "alpha": 0.1, "side": "one_sided",
               "detector": "page", "reps": 1000, "grid": 1000, "seed": i,
               "c": 2.0, "std_err": 0.01}
        with open(os.path.join(cache, f"c{i}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(est, fh)
    _batch(tracer, "wiener.resolve_critical_value", 50, lambda: [
        wiener.resolve_critical_value(0.25, 0.1, "one_sided", "page", cache)
        for _ in range(50)])

    late = wl.LateChangeStudy
    params = MonitoringParams(m=late.M, gamma=late.GAMMA)
    x = np.random.default_rng(seed).standard_normal(late.M + params.horizon)
    train, stream = x[:late.M], x[late.M:]
    _batch(tracer, "detectors.run_monitor.array", 10 * params.horizon,
           lambda: [detectors.run_monitor(train, stream, params, 1.89922)
                    for _ in range(10)])
    _batch(tracer, "detectors.boundary_g.scalar", 2000, lambda: [
        detectors.boundary_g(late.M, k, late.GAMMA) for k in range(1, 2001)])

    scenario = ChangeScenario.from_exponent(1.0, 1.0, 0.75, late.M)
    cells = [(c, m, k(m), g)
             for g in (0.0, 0.25, 0.45) for c in (1.7, 1.9, 2.3)
             for m in (100, 1000, 10000)
             for k in (lambda m: 1, lambda m: 100,
                       lambda m: model.resolve_kstar(1.0, 0.75, m))]
    _batch(tracer, "asymptotics.solve_a_m", len(cells), lambda: [
        asymptotics.solve_a_m(c, m, k, 1.0, 1.0, g) for c, m, k, g in cells])
    _batch(tracer, "asymptotics.compute_normalization", 200, lambda: [
        asymptotics.compute_normalization(1.89922, late.M, scenario, 0.25)
        for _ in range(200)])
    _batch(tracer, "model.classify_case", 2000, lambda: [
        model.classify_case(scenario, 0.25) for _ in range(2000)])


def measure_dispatch(tracer, online):
    """In-process cli.dispatch with the online workload's CLI arguments."""
    tracer.section = "dispatch"
    tracer.install()
    try:
        for _ in range(REPEATS):
            with tracer.span("cli.dispatch_set", len(online.cli_calls)):
                for argv in online.cli_calls:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        cli.dispatch(argv)
    finally:
        tracer.uninstall()


def measure_import(repeats=3):
    """Fresh-process import time and RSS right after import (medians)."""
    runs = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                             capture_output=True, text=True, check=True,
                             timeout=wl.CLI_TIMEOUT_S).stdout
        runs.append(json.loads(out))
    return (statistics.median(r["import_s"] for r in runs),
            statistics.median(r["rss_mb"] for r in runs))


def _sections(tracer, workload):
    return sorted({s[3] for s in tracer.spans
                   if s[3] == workload or s[3].startswith(workload + "#")})


def _per_section(tracer, workload, fn):
    """Median over the workload's traced rounds of fn(spans of one round)."""
    vals = []
    for sec in _sections(tracer, workload):
        vals.append(fn([s for s in tracer.spans if s[3] == sec]))
    return statistics.median(vals)


def _sum(spans, *names):
    return sum(_dur(s) for s in spans if s[2] in names)


def _estimate_self(spans):
    est = {s[0] for s in spans if s[2] == "wiener.estimate_critical_value"}
    child = sum(_dur(s) for s in spans
                if s[2] == "wiener.simulate_functional_values" and s[1] in est)
    return _sum(spans, "wiener.estimate_critical_value") - child


def _wiener_paths(spans):
    """Stream keys of the Wiener paths drawn in one round: the rng_stream
    calls made inside simulate_functional_values."""
    sim = {s[0] for s in spans if s[2] == "wiener.simulate_functional_values"}
    return [tuple(s[7]) for s in spans
            if s[2] == "rng.rng_stream" and s[1] in sim]


def _path_reuse(spans):
    paths = _wiener_paths(spans)
    return len(set(paths)) / len(paths) if paths else 0.0


def _garch_samples(spans):
    return int(sum(s[6] for s in spans
                   if s[2] == "datagen.generate_garch11_batch"))


def derive(tracer, name, untraced_s, traced_s, online, counters, imports):
    """Every per-layer metric from the spans, counters and probes."""
    layer = lambda n, scale: _per_unit(tracer, n, scale)  # noqa: E731
    span_med = lambda n, scale=1.0: statistics.median(  # noqa: E731
        _dur(s) * scale for s in tracer.spans if s[2] == n)
    garch = [s for s in tracer.spans
             if s[2] == "datagen.generate_garch11_batch"]
    lazy = [s for s in tracer.spans if s[2] == "detectors.run_monitor"
            and s[1] is None and s[3].startswith(wl.OnlineMonitor.name)]
    dispatch_sets = tracer.select("cli.dispatch_set", "dispatch")
    base = statistics.median(untraced_s)
    top = _per_section(tracer, name, lambda spans: sum(
        _dur(s) for s in spans if s[1] is None))
    gaps = np.concatenate(online.gaps_ns)
    generated = round(_per_section(tracer, name, _garch_samples))
    metrics = {
        "rng.normal_ns": layer("rng.standard_normal", 1e9),
        "rng.stream_us": layer("rng.rng_stream", 1e6),
        "wiener.path_ns": layer("wiener.sample_wiener_path", 1e9),
        "wiener.ordinary_ns": layer("wiener.functional_ordinary", 1e9),
        "wiener.page_ns": layer("wiener.functional_page", 1e9),
        "wiener.simulate_s": _per_section(
            tracer, wl.Critvals.name,
            lambda sp: _sum(sp, "wiener.simulate_functional_values")),
        "wiener.estimate_self_s": _per_section(tracer, wl.Critvals.name,
                                               _estimate_self),
        "wiener.paths_drawn": round(_per_section(
            tracer, name, lambda sp: len(_wiener_paths(sp)))),
        "wiener.path_reuse": _per_section(tracer, name, _path_reuse),
        "wiener.resolve_us": layer("wiener.resolve_critical_value", 1e6),
        "datagen.garch_batch_ns": 1e9 * sum(_dur(s) for s in garch)
        / sum(s[6] for s in garch),
        "datagen.samples_generated": generated,
        "detectors.scan_ns": layer("detectors.run_monitor.array", 1e9),
        "detectors.online_us": 1e6 * sum(_dur(s) for s in lazy)
        / sum(s[6] for s in lazy),
        "detectors.step_p99_us": float(np.percentile(gaps, 99)) * 1e-3,
        "detectors.boundary_scalar_us": layer("detectors.boundary_g.scalar",
                                              1e6),
        "experiments.replications_s": span_med("experiments.run_replications"),
        "experiments.size_s": span_med("experiments.empirical_size"),
        "experiments.kde_ms": span_med("experiments.densities_from_records",
                                       1e3),
        "experiments.write_ms": 1e3 * _per_section(
            tracer, wl.LateChangeStudy.name, lambda sp: _sum(
                sp, "experiments.write_records_csv",
                "experiments.write_density_csv")),
        "experiments.table1_ms": statistics.median(
            _dur(s) * 1e3 for s in tracer.select("experiments.emit_table1",
                                                 "dispatch")),
        "asymptotics.solve_a_m_us": layer("asymptotics.solve_a_m", 1e6),
        "asymptotics.normalization_us": layer(
            "asymptotics.compute_normalization", 1e6),
        "model.classify_case_us": layer("model.classify_case", 1e6),
        "cli.import_s": imports[0],
        "cli.import_rss_mb": imports[1],
        "cli.dispatch_ms": statistics.median(
            _dur(s) / s[6] * 1e3 for s in dispatch_sets),
        "cli.call_s": statistics.median(
            c[0] for r in online.rounds for c in r["cli"]),
        "trace.coverage": top / base,
        "trace.overhead_s": statistics.median(traced_s) - base,
    }
    for key in COUNTERS:
        metrics[key] = counters.get(key, 0)
    used = metrics["datagen.samples_used"]
    metrics["datagen.useful_ratio"] = used / generated if generated else 0.0
    return {k: {"value": metrics[k], "unit": PER_LAYER[k][0]}
            for k in PER_LAYER}


def run_traced(work, seed, seconds, work_dir):
    """Trace mode: alternate untraced and traced rounds of the workload for
    `seconds` (at least two of each), trace one round of every other
    workload, then the direct layer calls and the probes."""
    from tracing import Tracer
    tracer = Tracer()
    untraced, traced, ops = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        ops += work.run_round()
        untraced.append(time.perf_counter() - t0)
        tracer.section = f"{work.name}#{len(traced)}"
        tracer.install()
        try:
            t0 = time.perf_counter()
            ops += work.run_round(tracer)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    others = {}
    for cls in wl.WORKLOADS.values():
        if cls.name == work.name:
            others[cls.name] = work
            continue
        other = cls(seed, work_dir)
        other.make_inputs()
        tracer.section = cls.name
        tracer.install()
        try:
            other.run_round(tracer)
        finally:
            tracer.uninstall()
        others[cls.name] = other
    online = others[wl.OnlineMonitor.name]
    measure_layers(tracer, work_dir, seed)
    measure_dispatch(tracer, online)
    imports = measure_import()
    metrics = derive(tracer, work.name, untraced, traced, online,
                     work.counters(), imports)
    return tracer, untraced, traced, ops, metrics
