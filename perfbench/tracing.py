"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into each layer from the benchmark's side:
the public functions of the pagecusum modules are replaced, in the namespaces
that call them, by wrappers that open one span per call. A call made inside
another traced call becomes its child, so a layer's self time is its span
minus its children. Nothing inside the program is changed, and the wrappers
are removed again by uninstall().
"""

import functools
import importlib
import time

# (module whose namespace holds the name, attribute) pairs to wrap. A function
# is wrapped in every namespace it is called through; per-observation helpers
# of the online path (step_detector, detector_stat and detectors.boundary_g)
# are left alone so the traced lazy monitor runs at full speed.
TARGETS = (
    ("wiener", "estimate_critical_value"),
    ("wiener", "simulate_functional_values"),
    ("wiener", "resolve_critical_value"),
    ("wiener", "rng_stream"),
    ("datagen", "rng_stream"),
    ("experiments", "simulate_to_dir"),
    ("experiments", "run_replications"),
    ("experiments", "empirical_size"),
    ("experiments", "generate_garch11_batch"),
    ("experiments", "boundary_g"),
    ("experiments", "write_records_csv"),
    ("experiments", "densities_from_records"),
    ("experiments", "kde"),
    ("experiments", "write_density_csv"),
    ("experiments", "emit_table1"),
    ("experiments", "solve_a_m"),
    ("experiments", "compute_b_m"),
    ("experiments", "compute_normalization"),
    ("experiments", "validate_scenario"),
    ("asymptotics", "solve_a_m"),
    ("asymptotics", "compute_b_m"),
    ("asymptotics", "classify_case"),
    ("detectors", "run_monitor"),
    ("detectors", "summarize_training"),
    ("cli", "run_monitor"),
    ("cli", "dispatch"),
)


def _garch_units(args, kwargs, result):
    """Samples drawn, burn-in included: n_paths * (burn_in + n)."""
    spec, n, n_paths = args[:3]
    return float(n_paths * (spec.burn_in + n))


def _monitor_units(args, kwargs, result):
    """Observations consumed: tau when stopped, else the stream length read."""
    if result.tau is not None:
        return float(result.tau)
    params = args[2] if len(args) > 2 else kwargs["params"]
    return float(params.horizon)


UNITS = {
    "datagen.generate_garch11_batch": _garch_units,
    "detectors.run_monitor": _monitor_units,
}


def _stream_key(args, kwargs):
    """The (seed, index) key of the stream, which names the path it draws."""
    return [int(a) for a in args[:2]]


TAGS = {"rng.rng_stream": _stream_key}


class Tracer:
    """Spans as (id, parent id, name, section, start ns, end ns, units, tag).

    units is the work a span did (for per-unit times), tag what it worked on.
    """

    def __init__(self):
        self.spans = []
        self.section = ""
        self._stack = []
        self._patches = []

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, self.section, 0, 0, None,
                           None])
        self._stack.append(sid)
        return sid

    def _close(self, sid, t0, t1, units):
        span = self.spans[sid]
        span[4], span[5], span[6] = t0, t1, units
        self._stack.pop()

    def span(self, name, units=None):
        """Context manager recording one span from the benchmark's side."""
        return _Span(self, name, units)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        units_of = UNITS.get(name)
        tag_of = TAGS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._close(sid, t0, t1, None)
            if units_of is not None:
                self.spans[sid][6] = units_of(args, kwargs, result)
            if tag_of is not None:
                self.spans[sid][7] = tag_of(args, kwargs)
            return result

        return traced

    def install(self):
        for mod_name, attr in TARGETS:
            mod = importlib.import_module(f"pagecusum.{mod_name}")
            original = getattr(mod, attr)
            self._patches.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original))

    def uninstall(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def select(self, name, section=None):
        return [s for s in self.spans
                if s[2] == name and (section is None or s[3] == section)]

    def to_json(self):
        cols = ("id", "parent", "name", "section", "start_ns", "end_ns",
                "units", "tag")
        return {"columns": cols, "spans": self.spans}


class _Span:
    __slots__ = ("tracer", "name", "units", "sid", "t0")

    def __init__(self, tracer, name, units):
        self.tracer, self.name, self.units = tracer, name, units

    def __enter__(self):
        self.sid = self.tracer._open(self.name)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.t0, time.perf_counter_ns(),
                           self.units)
        return False
