"""The four benchmark workloads.

Each workload is built in three steps. The constructor does the program-side
preparation that set-up time covers (parameters, scenario and critical
values from resolve_critical_value). make_inputs() writes the benchmark's own
inputs from the seed, outside any timing. run_round() is one timed round of
operations: every round of a run repeats the same operations on the same
inputs, so a run always attempts whole rounds and the share of failed
operations is the same in every run. check_round() and final_checks() decide
which operations failed; final_checks() also runs the untimed reference and
determinism checks.
"""

import contextlib
import csv
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import pagecusum
from pagecusum import detectors, experiments, wiener
from pagecusum.datagen import Garch11Spec, generate_garch11_batch
from pagecusum.model import ChangeScenario, MonitoringParams

import reference as ref

ALPHA = 0.1
GARCH = (0.5, 0.2, 0.3, 500)  # omega, alpha_g, beta_g, burn_in
CLI_TIMEOUT_S = 120


def _garch_spec():
    omega, a_g, b_g, burn_in = GARCH
    return Garch11Spec(omega=omega, alpha_g=a_g, beta_g=b_g, burn_in=burn_in)


def _span(tracer, name, units=None):
    return tracer.span(name, units) if tracer else contextlib.nullcontext()


def _read_bytes(directory):
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


class _Workload:
    """Defaults: no benchmark-side inputs, no extra checks, no counters."""

    def make_inputs(self):
        pass

    def obs_rate(self, i, round_s):
        """Observations per second in round i: input size over round time."""
        return self.obs_per_round / round_s

    def final_checks(self):
        return 0, {}

    def counters(self):
        return {}


class Critvals(_Workload):
    """Three critical-value estimates on one shared seed and grid."""

    name = "critvals"
    REPS = 1024
    T = 10_000
    CALLS = (("ordinary", 0.0), ("page", 0.0), ("page", 0.45))

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.results = []

    @property
    def obs_per_round(self):
        return len(self.CALLS) * self.REPS * self.T

    def run_round(self, tracer=None):
        out = []
        for detector, gamma in self.CALLS:
            est = wiener.estimate_critical_value(
                gamma, ALPHA, "one_sided", detector, reps=self.REPS, T=self.T,
                seed=self.seed, threads=1)
            out.append((est.c, est.std_err))
        self.results.append(out)
        return len(self.CALLS)

    def check_round(self, i):
        """Failed operation indices of round i, with reasons."""
        fails = {}
        est = self.results[i]
        if i > 0:
            for j, pair in enumerate(est):
                if pair != self.results[0][j]:
                    fails[j] = f"estimate {j} differs from round 0: {pair}"
            return fails
        (c_ord, se_ord), (c_p0, _), (c_p45, _) = est
        exact = ref.exact_ordinary_quantile(ALPHA)
        se = ref.quantile_std_err(ALPHA, self.REPS)
        # the grid maximum only underestimates sup W; allow twice the
        # leading-order discretization shift 0.5826/sqrt(T)
        grid_bias = 2.0 * 0.5826 / math.sqrt(self.T)
        if not exact - grid_bias - 5.0 * se <= c_ord <= exact + 5.0 * se:
            fails[0] = f"ordinary c={c_ord} outside exact {exact:.4f} band"
        # bootstrap std errors of a quantile from 200 resamples of 1024
        # values spread 0.52-1.73 times the analytic value
        if not 0.4 <= se_ord / se <= 2.5:
            fails[0] = f"std_err {se_ord} vs analytic {se}"
        if not c_p0 >= c_ord:
            fails[1] = f"page gamma=0 {c_p0} < ordinary {c_ord}"
        if not c_p45 >= c_p0:
            fails[2] = f"page gamma=0.45 {c_p45} < page gamma=0 {c_p0}"
        return fails


class LateChangeStudy(_Workload):
    """Demo-04 replication study: late change, both detectors, KDE, files."""

    name = "late_change_study"
    M = 1000
    GAMMA = 0.25
    REPS = 250
    N_REFERENCE = 6

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.out_dir = os.path.join(work_dir, "late_change_study")
        self.params = MonitoringParams(m=self.M, gamma=self.GAMMA, alpha=ALPHA)
        self.scenario = ChangeScenario.from_exponent(1.0, 1.0, 0.75, self.M)
        self.garch = _garch_spec()
        self.c_page = wiener.resolve_critical_value(
            self.GAMMA, ALPHA, "one_sided", "page")
        self.c_q = wiener.resolve_critical_value(
            self.GAMMA, ALPHA, "one_sided", "ordinary")
        self.outputs = []

    @property
    def obs_per_round(self):
        return self.REPS * (self.M + self.params.horizon)

    def _study(self, out_dir, threads):
        experiments.simulate_to_dir(
            self.params, self.scenario, self.garch, self.REPS, self.c_page,
            self.c_q, self.seed, out_dir, threads=threads)
        return _read_bytes(out_dir)

    def run_round(self, tracer=None):
        self.outputs.append(self._study(self.out_dir, 1))
        return 1

    def check_round(self, i):
        if i > 0:
            if self.outputs[i] != self.outputs[0]:
                return {0: "output files differ from round 0"}
            return {}
        try:
            problems = self._check_outputs(self.outputs[0])
        except (KeyError, ValueError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return {0: "; ".join(problems)} if problems else {}

    def _records(self, files):
        rows = list(csv.reader(files["records.csv"].decode().splitlines()))
        header = ["rep", "tau_page", "tau_q", "nu_page", "nu_q", "nu_tilde"]
        if rows[0] != header:
            raise ValueError(f"records header {rows[0]}")
        return [[None if v == "" else float(v) for v in row]
                for row in rows[1:]]

    def _check_outputs(self, files):
        problems = []
        records = self._records(files)
        meta = json.loads(files["meta.json"])
        if len(records) != self.REPS:
            problems.append(f"{len(records)} records, expected {self.REPS}")
        sc = self.scenario
        # a, b solve their defining equations
        for tag, c in (("page", self.c_page), ("q", self.c_q)):
            a, b = meta[f"a_{tag}"], meta[f"b_{tag}"]
            a_ref = ref.solve_a(c, self.M, sc.kstar, sc.delta, sc.sigma,
                                self.GAMMA)
            b_ref = ref.b_of(a_ref, sc.kstar, sc.delta, sc.sigma, self.GAMMA)
            if ref.a_residual(a, c, self.M, sc.kstar, sc.delta, sc.sigma,
                              self.GAMMA) > 1e-9 or abs(a - a_ref) > 1e-9 * a:
                problems.append(f"a_{tag}={a} misses its equation ({a_ref})")
            if abs(b - b_ref) > 1e-9 * b:
                problems.append(f"b_{tag}={b} vs {b_ref}")
        # every nu is (tau - a)/b
        a_p, b_p, a_q, b_q = (meta["a_page"], meta["b_page"], meta["a_q"],
                              meta["b_q"])
        for rep, tp, tq, nup, nuq, nut in records:
            for tau, nu, a, b in ((tp, nup, a_p, b_p), (tq, nuq, a_q, b_q),
                                  (tq, nut, a_p, b_p)):
                if (tau is None) != (nu is None) or (
                        tau is not None and abs(nu - (tau - a) / b) > 1e-12):
                    problems.append(f"rep {rep}: nu {nu} != (tau-a)/b")
                    break
        # sampled stopping times equal the independent recomputation
        picks = np.random.default_rng(self.seed).choice(
            self.REPS, size=self.N_REFERENCE, replace=False)
        for rep in sorted(int(r) for r in picks):
            want = ref.first_crossings(
                self.seed, rep, GARCH, self.M, self.params.horizon,
                self.GAMMA, self.c_page, self.c_q, kstar=sc.kstar,
                delta=sc.delta)
            got = tuple(None if t is None else int(t)
                        for t in records[rep][1:3])
            if got != want:
                problems.append(f"rep {rep}: tau {got} != reference {want}")
        # the page rule stops earlier under a late change
        d = np.array([r[3] - r[5] for r in records
                      if r[3] is not None and r[5] is not None])
        se = d.std(ddof=1) / math.sqrt(d.size)
        if not d.mean() < -2.0 * se:
            problems.append(f"mean(nu_page - nu_tilde)={d.mean():.3f} "
                            f"not < -2 se ({se:.3f})")
        for name in ("density_page.csv", "density_q.csv", "density_tilde.csv"):
            pts = np.array([[float(v) for v in row] for row in
                            csv.reader(files[name].decode().splitlines()[1:])])
            area = float(np.sum(np.diff(pts[:, 0])
                                * 0.5 * (pts[1:, 1] + pts[:-1, 1])))
            if abs(area - 1.0) > 0.01:
                problems.append(f"{name} integrates to {area:.4f}")
        return problems

    def final_checks(self):
        """The study with threads=2 must reproduce round 0 byte for byte."""
        files = self._study(self.out_dir + "_threads2", 2)
        if files != self.outputs[0]:
            return 1, {"threads2": "threads=2 output differs from threads=1"}
        return 1, {}

    def counters(self):
        """Samples a path needs to decide both rules, and output size."""
        horizon = self.params.horizon
        burn = self.garch.burn_in
        used = 0
        for row in self._records(self.outputs[0]):
            taus = row[1:3]
            tail = horizon if None in taus else int(max(taus))
            used += burn + self.M + tail
        return {"datagen.samples_used": used,
                "experiments.output_bytes": sum(
                    len(b) for b in self.outputs[0].values())}


class NullSize(_Workload):
    """Empirical size of both detectors on the same null GARCH paths."""

    name = "null_size"
    M = 2000
    REPS = 250
    N_REFERENCE = 8
    DETECTORS = ("ordinary", "page")

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.garch = _garch_spec()
        self.params = {d: MonitoringParams(m=self.M, gamma=0.0, alpha=ALPHA,
                                           detector=d)
                       for d in self.DETECTORS}
        self.c = {d: wiener.resolve_critical_value(0.0, ALPHA, "one_sided", d)
                  for d in self.DETECTORS}
        self.results = []
        self._taus = None

    @property
    def horizon(self):
        return self.params["page"].horizon

    @property
    def obs_per_round(self):
        return 2 * self.REPS * (self.M + self.horizon)

    def run_round(self, tracer=None):
        out = []
        for d in self.DETECTORS:
            out.append(experiments.empirical_size(
                self.params[d], self.garch, self.REPS, self.c[d], self.seed))
        self.results.append(out)
        return 2

    def check_round(self, i):
        fails = {}
        if i > 0:
            for j, size in enumerate(self.results[i]):
                if size != self.results[0][j]:
                    fails[j] = f"size {size} differs from round 0"
            return fails
        limit = ALPHA + 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / self.REPS)
        for j, size in enumerate(self.results[0]):
            if not size <= limit:
                fails[j] = f"size {size} > {limit:.4f}"
        return fails

    def path_taus(self):
        """{detector: per-path tau} on the program's null GARCH paths.

        The first crossings come from the benchmark's own numpy scan
        (reference.numpy_first_crossing); None = no stop. Computed once, in
        blocks of 125 paths; it costs about a round.
        """
        if self._taus is None:
            m, horizon = self.M, self.horizon
            self._taus = {d: [] for d in self.DETECTORS}
            for start in range(0, self.REPS, 125):
                eps = generate_garch11_batch(
                    self.garch, m + horizon, min(125, self.REPS - start),
                    self.seed, first_stream=start)
                for row in eps:
                    for d in self.DETECTORS:
                        self._taus[d].append(ref.numpy_first_crossing(
                            row[:m], row[m:], self.c[d], 0.0, d, horizon))
        return self._taus

    def final_checks(self):
        """Round 0's stop counts equal the numpy scan's on all paths; on the
        first N_REFERENCE paths the program (run with reps=N_REFERENCE) and
        the scan both match the plain-Python recomputation from the Philox
        streams."""
        taus = self.path_taus()
        fails = {}
        for j, d in enumerate(self.DETECTORS):
            want = sum(t is not None for t in taus[d])
            got = self.results[0][j] * self.REPS
            if round(got) != want or abs(got - want) > 1e-9:
                fails[j] = f"{d}: {got} stops, numpy scan {want}"
        n = self.N_REFERENCE
        recomputed = [ref.first_crossings(self.seed, rep, GARCH, self.M,
                                          self.horizon, 0.0, self.c["page"],
                                          self.c["ordinary"])
                      for rep in range(n)]
        for k, d in enumerate(("page", "ordinary")):
            want = [t[k] for t in recomputed]
            got = experiments.empirical_size(self.params[d], self.garch, n,
                                             self.c[d], self.seed) * n
            stops = sum(t is not None for t in want)
            if round(got) != stops or abs(got - stops) > 1e-9:
                fails[f"subsample_{d}"] = (f"{d}: {got} stops on {n} paths, "
                                           f"reference {stops}")
            elif taus[d][:n] != want:
                fails[f"subsample_{d}"] = (f"{d}: scan taus {taus[d][:n]} "
                                           f"vs reference {want}")
        return 2, fails

    def counters(self):
        """Samples used per call: burn-in + m + max(tau_page, tau_q), or
        + horizon when a path never stops."""
        taus = self.path_taus()
        horizon = self.horizon
        used = sum(self.garch.burn_in + self.M
                   + max(horizon if t is None else t for t in pair)
                   for pair in zip(*taus.values()))
        return {"datagen.samples_used": len(self.DETECTORS) * used}


class OnlineMonitor(_Workload):
    """Lazy run_monitor over Python generators, then CLI monitor and table1."""

    name = "online_monitor"
    M = 1000
    KSTAR = 4000
    DELTA = 1.0
    NAN_AT = 100
    CONFIGS = (("page", 0.25), ("ordinary", 0.0), ("page", 0.45),
               ("ordinary", 0.25), ("page", 0.0), ("ordinary", 0.45)) * 3

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = os.path.join(work_dir, "online_monitor")
        self.monitors = [
            (MonitoringParams(m=self.M, gamma=g, alpha=ALPHA, detector=d),
             wiener.resolve_critical_value(g, ALPHA, "one_sided", d))
            for d, g in self.CONFIGS]
        self.rounds = []
        self.gaps_ns = []
        self.lazy_s = []

    @property
    def horizon(self):
        return self.monitors[0][0].horizon

    def make_inputs(self):
        """Standard normal training and streams, shift DELTA from KSTAR on."""
        os.makedirs(self.work_dir, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.streams = []
        for _ in self.CONFIGS:
            train = rng.standard_normal(self.M)
            x = rng.standard_normal(self.horizon)
            x[self.KSTAR - 1:] += self.DELTA
            self.streams.append((train, x, x.tolist()))
        train, x, _ = self.streams[0]
        self.files = {name: os.path.join(self.work_dir, name) for name in
                      ("train.csv", "stream.csv", "stream_nan.csv",
                       "table1.csv")}
        x_nan = x.copy()
        x_nan[self.NAN_AT - 1] = math.nan
        for name, values in (("train.csv", train), ("stream.csv", x),
                             ("stream_nan.csv", x_nan)):
            with open(self.files[name], "w", encoding="utf-8") as fh:
                fh.write("x\n")
                fh.writelines(f"{float(v)!r}\n" for v in values)
        d, g = self.CONFIGS[0]
        c = self.monitors[0][1]
        flags = ["--gamma", repr(g), "--detector", d]
        self.cli_calls = (
            ["monitor", "--train", self.files["train.csv"], "--stream",
             self.files["stream.csv"], *flags],
            ["monitor", "--train", self.files["train.csv"], "--stream",
             self.files["stream_nan.csv"], *flags],
            ["table1", "--out", self.files["table1.csv"]],
        )
        self.expected_tau = [
            ref.numpy_first_crossing(tr, xs, c_, p.gamma, p.detector,
                                     p.horizon)
            for (tr, xs, _), (p, c_) in zip(self.streams, self.monitors)]

    def _lazy(self, values, stamps):
        clock = time.perf_counter_ns
        for v in values:
            stamps.append(clock())
            yield v

    def run_round(self, tracer=None):
        """The CLI calls, then the lazy monitor runs. Lazy monitoring comes
        last so that the calibration after the round, which scales its rate,
        is timed right after it."""
        cli = []
        for argv in self.cli_calls:
            with _span(tracer, "cli.subprocess"):
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "pagecusum", *argv],
                    capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
                cli.append((time.perf_counter() - t0, proc.returncode,
                            proc.stdout, proc.stderr))
        table1 = self._read_table1()
        taus, consumed, gaps, lazy_s = [], [], [], 0.0
        for (train, _, values), (params, c) in zip(self.streams,
                                                   self.monitors):
            stamps = []
            t0 = time.perf_counter()
            res = detectors.run_monitor(train, self._lazy(values, stamps),
                                        params, c)
            lazy_s += time.perf_counter() - t0
            taus.append(res.tau)
            consumed.append(len(stamps))
            gaps.append(np.diff(np.asarray(stamps, dtype=np.int64)))
        self.rounds.append({"taus": taus, "consumed": consumed, "cli": cli,
                            "table1": table1})
        self.gaps_ns.append(np.concatenate(gaps))
        self.lazy_s.append(lazy_s)
        return len(self.monitors) + len(self.cli_calls)

    def _read_table1(self):
        try:
            with open(self.files["table1.csv"], encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            os.remove(self.files["table1.csv"])
            return rows
        except OSError:
            return None

    def obs_rate(self, i, round_s):
        """Observations consumed per second of lazy monitoring in round i."""
        return sum(self.rounds[i]["consumed"]) / self.lazy_s[i]

    def check_round(self, i):
        fails = {}
        r = self.rounds[i]
        n = len(self.monitors)
        for j, (tau, used, want) in enumerate(zip(r["taus"], r["consumed"],
                                                   self.expected_tau)):
            if tau != want or used != (tau or self.horizon):
                fails[j] = (f"stream {j}: lazy tau {tau} after {used} reads, "
                            f"numpy reference {want}")
        _, code, out, err = r["cli"][0]
        try:
            got = json.loads(out)
            want = self.expected_tau[0]
            if got["stopped"] != (want is not None) or got["tau"] != want:
                fails[n] = f"monitor printed {got}, reference tau {want}"
        except (ValueError, KeyError):
            fails[n] = f"monitor exit {code}: {out!r} {err!r}"
        _, code, out, _ = r["cli"][1]
        if code != 2:
            fails[n + 1] = (f"KNOWN: monitor on a stream with nan exits "
                            f"{code} and prints {out.strip()}; expected 2")
        problems = self._check_table1(r["table1"])
        if problems:
            fails[n + 2] = "; ".join(problems[:3])
        return fails

    def _check_table1(self, rows):
        if not rows:
            return ["table1 wrote no rows"]
        problems = []
        c = {(d, g): wiener.REFERENCE_CRITICAL_VALUES[(g, ALPHA, "one_sided",
                                                       d)]
             for d in ("page", "ordinary") for g in (0.0, 0.25, 0.45)}
        seen = set()
        for row in rows:
            rule, gamma, m = row["rule"], float(row["gamma"]), int(row["m"])
            kstar = ref.TABLE_KSTAR[rule](m)
            if int(row["kstar"]) != kstar:
                problems.append(f"{rule} m={m}: kstar {row['kstar']}")
            for tag, det in (("page", "page"), ("q", "ordinary")):
                a = ref.solve_a(c[(det, gamma)], m, kstar, gamma=gamma)
                b = ref.b_of(a, kstar, gamma=gamma)
                # entries are written with 6 decimals
                for key, want in ((f"a_{tag}", a), (f"b_{tag}", b)):
                    if abs(float(row[key]) - want) > 5e-7 + 1e-9 * want:
                        problems.append(f"{rule} g={gamma} m={m} {key} "
                                        f"{row[key]} vs {want:.6f}")
            published = ref.PUBLISHED_M1000.get((rule, gamma))
            if published and m == 1000:
                seen.add((rule, gamma))
                got = [float(row[k]) for k in ("a_page", "b_page", "a_q",
                                               "b_q")]
                if max(abs(x - y) for x, y in zip(got, published)) > 0.01:
                    problems.append(f"{rule} g={gamma}: {got} vs {published}")
        if len(rows) != 45 or seen != set(ref.PUBLISHED_M1000):
            problems.append(f"{len(rows)} rows, {len(seen)} published matched")
        return problems

    def final_checks(self):
        """The array path gives the same tau as the lazy path; a mismatch
        fails that stream's lazy run in round 0."""
        fails = {}
        for j, ((train, x, _), (params, c)) in enumerate(
                zip(self.streams, self.monitors)):
            res = detectors.run_monitor(train, x, params, c)
            if res.tau != self.expected_tau[j]:
                fails[j] = f"array tau {res.tau} vs {self.expected_tau[j]}"
        return 0, fails


WORKLOADS = {cls.name: cls for cls in (Critvals, LateChangeStudy, NullSize,
                                       OnlineMonitor)}


def check_import(root):
    """The imported package must be the checkout's own source tree."""
    src = os.path.realpath(os.path.join(root, "src"))
    path = os.path.realpath(pagecusum.__file__)
    if not path.startswith(src + os.sep):
        raise RuntimeError(f"pagecusum imported from {path}, not {src}")
