"""Replication harness: paired stopping times, normalized delays, empirical
sizes, density estimates, and the normalization table.

Every replication draws a fresh GARCH training sample and monitoring stream
from its own RNG stream, runs the page and ordinary detectors on the same
data, and records the stopping times together with their normalized versions

    nu_page  = (tau_page - a_m(c_page)) / b_m(c_page)
    nu_q     = (tau_q    - a_m(c_q))    / b_m(c_q)
    nu_tilde = (tau_q    - a_m(c_page)) / b_m(c_page),

nu_tilde being the ordinary stopping time under the page normalization, the
natural benchmark for comparing the two rules on one scale.

run_replications and empirical_size fan _block_taus out with
rng._map_blocks over as few blocks of at most _BLOCK replications as the
thread count allows: a study of up to _BLOCK replications in one process is
one block. Each GARCH time step is a few numpy calls on a whole block, so
wider blocks pay less call overhead per path. Workers return only tau arrays;
records and stop counts are built from them in the calling process.

The study files follow the dataclasses they serialize: records.csv has one
column per ReplicationRecord field, and meta.json takes its scenario, GARCH
and regime keys from the fields of ChangeScenario, Garch11Spec and CaseLabel.
"""

import csv
import functools
import json
import math
import operator
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .asymptotics import compute_b_m, compute_normalization, solve_a_m
from .datagen import CHUNK, GarchCarry, Garch11Spec, generate_garch11_batch
from .detectors import (ScanCarry, boundary_g, chunk_bound, chunk_statistic,
                        first_crossings, partial_sums)
from .model import (ChangeScenario, MonitoringParams, ValidationError,
                    _require, _require_count, resolve_kstar, validate_scenario)
from .rng import _map_blocks

# widest block of replications per work unit. A GARCH time step is seven
# ufunc calls on the whole block, mostly call overhead: the step alone takes
# about 48 ns per sample at 125 paths, 24 at 250 and 12-13 at 500 on a 2-core
# VM. A block's arrays stay a few MB, and every path is computed on its own,
# so width never moves data
_BLOCK = 500


@dataclass(frozen=True)
class ReplicationRecord:
    """Stopping times and normalized delays of one replication.

    tau fields are None when the detector did not stop within the horizon
    (or training was degenerate); the matching nu fields are then None too.
    """

    rep: int
    tau_page: int | None
    tau_q: int | None
    nu_page: float | None
    nu_q: float | None
    nu_tilde: float | None


def _row_summaries(train: np.ndarray):
    """Each row's mean and standard deviation (ddof=1) of a C-contiguous
    (count, m) block, with the bits of row.mean() and row.std(ddof=1): a
    block reduced along its rows sums each row pairwise, as a 1-D reduction
    does. Slices of step rows keep each temporary within the generator's
    (count, CHUNK) buffer."""
    count, m = train.shape
    step = max(1, count * CHUNK // m)
    blocks = [train[i:i + step] for i in range(0, count, step)]
    return (np.concatenate([b.mean(axis=1) for b in blocks]),
            np.concatenate([b.std(axis=1, ddof=1) for b in blocks]))


# overflow only makes values non-finite, and every one that matters is
# rejected: the training summaries and thresholds, and Q(m, k) of each path
# up to its stop
@np.errstate(over="ignore", invalid="ignore")
def _block_taus(params: MonitoringParams, garch: Garch11Spec, mu: float,
                seed: int, start: int, count: int, rules, shift=None):
    """First crossings of each (detector, c) rule on replications
    [start, start + count).

    shift is (kstar, delta) or None for change-free streams. Returns one
    int array per rule with each path's 1-based stopping time, 0 when the
    path did not stop or its training sample is constant. The streams are
    generated and scanned CHUNK steps at a time, and generation ends as soon
    as every path has stopped under every rule. Within a chunk a rule scans
    exactly only the paths that detectors.chunk_bound does not settle.
    Raises ValidationError naming the first replication whose training mean,
    sd or threshold is non-finite, or whose Q(m, k) turns non-finite before
    the path has stopped under every rule.
    """
    m, horizon = params.m, params.horizon
    g = boundary_g(m, np.arange(1, horizon + 1), params.gamma)
    carry = GarchCarry()
    train = generate_garch11_batch(garch, m, count, seed,
                                   first_stream=start, carry=carry)
    train += mu
    mean, sd = _row_summaries(train)
    del train  # the (count, m) block is not needed past its mean and sd
    scales = [sd * c for _, c in rules]
    ok = np.isfinite(mean)
    for scale in scales:
        ok &= np.isfinite(scale * g[-1])  # g rises, so g[-1] is its top
    if not ok.all():
        raise ValidationError(
            f"replication {start + int(np.argmin(ok))}: training mean, sd or "
            "threshold is non-finite")
    live = sd > 0.0  # a constant training sample never stops
    taus = [np.zeros(count, dtype=np.int64) for _ in rules]
    scan = ScanCarry(count)
    stream_garch = replace(garch, burn_in=0)
    for k0 in range(0, horizon, CHUNK):
        length = min(CHUNK, horizon - k0)
        x = generate_garch11_batch(stream_garch, length, count, seed,
                                   first_stream=start, carry=carry)
        x += mu
        if shift is not None:
            kstar, delta = shift
            x[:, max(kstar - 1 - k0, 0):] += delta
        q = partial_sums(x, mean, scan.q)
        q_min, q_max = scan.q_min, scan.q_max
        lo, hi = scan.advance(q)
        g_chunk = g[k0:k0 + length]
        g_min = g_chunk.min()
        for (detector, _), tau, scale in zip(rules, taus, scales):
            # a path whose bound is below its lowest threshold in the chunk,
            # scale * g_min, cannot cross in it (the product rounds
            # monotonely), so only the other open paths are scanned exactly
            bound = chunk_bound(lo, hi, scan, params.side, detector)
            rows = np.flatnonzero((tau == 0) & live & (bound >= scale * g_min))
            if rows.size == 0:
                continue
            # copies of at most half the rows take less time and memory than
            # scanning every row in place
            sel = rows if rows.size * 2 <= count else slice(None)
            stat = chunk_statistic(q[sel], q_min[sel], q_max[sel],
                                   params.side, detector)
            j = first_crossings(stat, scale[sel, None] * g_chunk)
            if sel is not rows:
                j = j[rows]
            hit = j >= 0
            tau[rows[hit]] = k0 + 1 + j[hit]
        # a non-finite Q(m, k) could pass for a stop or hide one, so it is an
        # error unless the path stopped under every rule before it
        bad = np.flatnonzero(live & ~(np.isfinite(lo) & np.isfinite(hi)))
        if bad.size:
            k_bad = k0 + 1 + np.argmin(np.isfinite(q[bad]), axis=1)
            open_ = np.zeros(bad.size, dtype=bool)
            for tau in taus:
                open_ |= (tau[bad] == 0) | (tau[bad] >= k_bad)
            if open_.any():
                i = int(np.argmax(open_))
                raise ValidationError(
                    f"replication {start + int(bad[i])}: Q(m, k) is "
                    f"non-finite at k = {int(k_bad[i])}")
        if not any(np.any((tau == 0) & live) for tau in taus):
            break
    return taus


def run_replications(params: MonitoringParams, scenario: ChangeScenario,
                     garch: Garch11Spec, reps: int, c_page: float,
                     c_q: float, seed: int, mu: float = 0.0,
                     threads: int = 1) -> list[ReplicationRecord]:
    """Run both stopping rules over fresh data in each replication.

    Deterministic given seed: replication r always uses RNG stream (seed, r),
    so the result is identical for any thread count or block size.
    """
    _require_count(reps, "reps", 1)
    _require(math.isfinite(mu), "mu must be finite")
    validate_scenario(scenario, params.m)
    norm_page = compute_normalization(c_page, params.m, scenario, params.gamma)
    norm_q = compute_normalization(c_q, params.m, scenario, params.gamma)
    a_page, b_page = norm_page.a_m, norm_page.b_m
    a_q, b_q = norm_q.a_m, norm_q.b_m
    fn = functools.partial(_block_taus, params, garch, mu, seed,
                           rules=(("page", c_page), ("ordinary", c_q)),
                           shift=(scenario.kstar, scenario.delta))
    parts = _map_blocks(fn, reps, _BLOCK, threads)
    taus_page = np.concatenate([page for page, _ in parts]).tolist()
    taus_q = np.concatenate([q for _, q in parts]).tolist()
    records = []
    for rep, (tau_page, tau_q) in enumerate(zip(taus_page, taus_q)):
        tau_page, tau_q = tau_page or None, tau_q or None
        nu_page = (tau_page - a_page) / b_page if tau_page is not None else None
        nu_q = (tau_q - a_q) / b_q if tau_q is not None else None
        nu_tilde = (tau_q - a_page) / b_page if tau_q is not None else None
        records.append(ReplicationRecord(rep, tau_page, tau_q,
                                         nu_page, nu_q, nu_tilde))
    return records


def empirical_size(params: MonitoringParams, garch: Garch11Spec, reps: int,
                   c: float, seed: int, mu: float = 0.0,
                   threads: int = 1) -> float:
    """Fraction of change-free replications that stop within the horizon.

    No shift is injected (the null hypothesis), so this estimates the
    truncated false-alarm probability; enlarging the horizon can only
    increase it, toward the open-end level alpha.
    """
    _require_count(reps, "reps", 1)
    _require(0.0 < c < math.inf, "critical value must be positive and finite")
    _require(math.isfinite(mu), "mu must be finite")
    fn = functools.partial(_block_taus, params, garch, mu, seed,
                           rules=((params.detector, c),))
    parts = _map_blocks(fn, reps, _BLOCK, threads)
    return sum(int(np.count_nonzero(taus)) for (taus,) in parts) / reps


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian-kernel density estimate on a uniform grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    n: int


def kde(samples, grid_lo: float, grid_hi: float,
        points: int = 401) -> DensityEstimate:
    """Gaussian KDE with Silverman bandwidth 0.9*min(sd, IQR/1.34)*n**(-1/5).

    Falls back to 0.9*sd*n**(-1/5) when the IQR is zero. Rejects samples with
    a non-finite value or zero spread. The grid must cover (essentially) all
    the mass for the density's area over it to be ~1.
    """
    x = np.asarray(samples, dtype=float)
    _require(x.ndim == 1 and x.size >= 2, "need at least 2 samples")
    _require(-math.inf < grid_lo < grid_hi < math.inf,
             "grid_lo and grid_hi must be finite, grid_hi above grid_lo")
    _require_count(points, "points", 2)
    finite = np.isfinite(x)
    if not finite.all():
        raise ValidationError(f"non-finite sample value {x[~finite][0]}")
    sd = float(x.std(ddof=1))
    if not sd > 0.0:
        raise ValidationError("degenerate sample: zero spread")
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    h = 0.9 * spread * x.size ** (-0.2)
    grid = np.linspace(grid_lo, grid_hi, points)
    dens = np.zeros(points)
    norm = 1.0 / (x.size * h * math.sqrt(2.0 * math.pi))
    for start in range(0, x.size, 4096):
        chunk = x[start:start + 4096]
        z = (grid[None, :] - chunk[:, None]) / h
        dens += np.exp(-0.5 * z * z).sum(axis=0)
    return DensityEstimate(grid=grid, density=dens * norm, bandwidth=h,
                           n=int(x.size))


# canonical layout of the normalization table: change-time rule, how kstar is
# derived from m, and the gamma values the rule is reported at
TABLE1_RULES = (
    ("1", "fixed", 1.0, (0.0, 0.25, 0.45)),
    ("100", "fixed", 100.0, (0.0, 0.25, 0.45)),
    ("m^0.45", "power", 0.45, (0.0, 0.25, 0.45)),
    ("m^0.5", "power", 0.5, (0.0,)),
    ("m^(1/3)", "power", 1.0 / 3.0, (0.25,)),
    ("m^(1/11)", "power", 1.0 / 11.0, (0.45,)),
    ("m^0.75", "power", 0.75, (0.0, 0.25, 0.45)),
)

TABLE1_COLUMNS = ("rule", "gamma", "m", "kstar", "a_page", "b_page",
                  "a_q", "b_q")


def emit_table1(c_page_by_gamma: dict, c_q_by_gamma: dict, m_values,
                out_path=None) -> list[dict]:
    """Normalization table rows for both stopping rules, for a unit shift
    and unit noise scale (delta = sigma = 1).

    The two dicts map gamma to the critical value of each rule and must
    have the same keys. Rows are emitted for each TABLE1_RULES rule (kind
    "fixed": kstar = value; kind "power": kstar = floor(m**value)), each of
    its gammas that is a key of the dicts, and each m.
    """
    _require(c_page_by_gamma.keys() == c_q_by_gamma.keys(),
             "c_page_by_gamma and c_q_by_gamma need the same gammas")
    rows = []
    for label, kind, value, rule_gammas in TABLE1_RULES:
        for gamma in rule_gammas:
            if gamma not in c_page_by_gamma:
                continue
            for m in m_values:
                kstar = int(value) if kind == "fixed" \
                    else resolve_kstar(1.0, value, m)
                row = {"rule": label, "gamma": gamma, "m": int(m),
                       "kstar": kstar}
                for tag, c in (("page", c_page_by_gamma[gamma]),
                               ("q", c_q_by_gamma[gamma])):
                    a = solve_a_m(c, m, kstar, 1.0, 1.0, gamma)
                    b = compute_b_m(a, 1.0, 1.0, gamma, kstar)
                    row[f"a_{tag}"] = a
                    row[f"b_{tag}"] = b
                rows.append(row)
    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(TABLE1_COLUMNS)
            for row in rows:  # the a and b columns to six decimals
                writer.writerow([row[k] for k in TABLE1_COLUMNS[:4]]
                                + [f"{row[k]:.6f}" for k in TABLE1_COLUMNS[4:]])
    return rows


RECORD_COLUMNS = tuple(f.name for f in fields(ReplicationRecord))


def write_records_csv(records, path) -> None:
    """A RECORD_COLUMNS header, then one row per record, None as an empty
    field. The text is built whole and written once, in csv.writer's bytes:
    str of each value (a float's repr, so parsing restores it) and \\r\\n
    after every line."""
    row = operator.attrgetter(*RECORD_COLUMNS)
    lines = [",".join(RECORD_COLUMNS)]
    lines += [",".join(["" if v is None else str(v) for v in row(r)])
              for r in records]
    lines.append("")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines))


def read_records_csv(path) -> list[ReplicationRecord]:
    """Records of a write_records_csv file; an empty field reads as None."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header, rows = next(reader, None), list(reader)
    _require(header == list(RECORD_COLUMNS),
             f"unexpected records header: {header}")
    _require(all(len(row) == len(header) for row in rows),
             "every records row needs one field per column")
    # counts are int, normalized delays float
    parsers = [float if name.startswith("nu_") else int for name in header]
    return [ReplicationRecord(*(parse(v) if v else None
                                for parse, v in zip(parsers, row)))
            for row in rows]


def write_density_csv(est: DensityEstimate, path) -> None:
    """An x,density header, then one row per grid point with the repr of
    each float, written once in csv.writer's bytes."""
    lines = ["x,density"]
    lines += [f"{x!r},{d!r}"
              for x, d in zip(est.grid.tolist(), est.density.tolist())]
    lines.append("")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines))


_DENSITY_FILES = {"nu_page": "density_page.csv", "nu_q": "density_q.csv",
                  "nu_tilde": "density_tilde.csv"}


def write_densities(densities, out_dir) -> None:
    """Write each estimate of densities_from_records to its density_*.csv,
    and delete the density files of the others, so none is left stale."""
    for name, filename in _DENSITY_FILES.items():
        path = os.path.join(out_dir, filename)
        if name in densities:
            write_density_csv(densities[name], path)
        elif os.path.exists(path):
            os.remove(path)


def densities_from_records(records, points: int = 401):
    """KDE estimates for nu_page / nu_q / nu_tilde, skipping no-stop records."""
    out = {}
    for name in _DENSITY_FILES:
        vals = np.array([getattr(r, name) for r in records
                         if getattr(r, name) is not None])
        if vals.size >= 2 and vals.std(ddof=1) > 0.0:
            out[name] = kde(vals, float(vals.min()) - 1.0,
                            float(vals.max()) + 1.0, points)
    return out


def simulate_to_dir(params: MonitoringParams, scenario: ChangeScenario,
                    garch: Garch11Spec, reps: int, c_page: float, c_q: float,
                    seed: int, out_dir, mu: float = 0.0,
                    threads: int = 1) -> dict:
    """Full replication study: records.csv, density_*.csv and meta.json."""
    records = run_replications(params, scenario, garch, reps, c_page, c_q,
                               seed, mu=mu, threads=threads)
    os.makedirs(out_dir, exist_ok=True)
    write_records_csv(records, os.path.join(out_dir, "records.csv"))
    write_densities(densities_from_records(records), out_dir)
    norm_page = compute_normalization(c_page, params.m, scenario, params.gamma)
    norm_q = compute_normalization(c_q, params.m, scenario, params.gamma)
    meta = {
        "m": params.m, "gamma": params.gamma, "alpha": params.alpha,
        "side": params.side, "horizon_factor": params.horizon_factor,
        "horizon": params.horizon, "reps": reps, "seed": seed, "mu": mu,
        **asdict(scenario), "garch": asdict(garch), "c_page": c_page,
        "c_q": c_q, "a_page": norm_page.a_m, "b_page": norm_page.b_m,
        "a_q": norm_q.a_m, "b_q": norm_q.b_m, "case": asdict(norm_page.case),
        "n_nostop_page": sum(1 for r in records if r.tau_page is None),
        "n_nostop_q": sum(1 for r in records if r.tau_q is None),
        "records_file": "records.csv",
    }
    # numpy ints become JSON ints; other non-JSON values raise before open
    text = json.dumps(meta, indent=2, sort_keys=True, default=operator.index)
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return meta
