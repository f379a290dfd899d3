"""Replication harness: paired stopping times, normalized delays, empirical
sizes, density estimates, and the normalization table.

Every replication draws a fresh training sample and monitoring stream from
location_paths, on its own RNG stream, runs the page and ordinary detectors
on the same data, and records the stopping times together with their
normalized versions

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

A block narrows as its paths settle: detectors.first_stops sends
location_paths the paths still open after each stream piece, and the
constant-training ones are dropped before the first, so each path's GARCH
errors are drawn and stepped only up to the piece where it has stopped
under every rule. Every path runs on its own stream and recursion, so the
stopping times are those of the whole block.

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
# boundary_g, uncalled, stays a global here for the benchmark's tracer
from .detectors import _row_summaries, boundary_g, first_stops  # noqa: F401
from .model import (ChangeScenario, MonitoringParams, ValidationError,
                    _require, _require_count, resolve_kstar, validate_scenario)
from .rng import _map_blocks

# widest block of replications per work unit. A GARCH time step is two
# ufunc calls on the whole block, plus a few whole-piece passes: without its
# normals it takes about 12-20 ns per sample at 125 paths, 11-16 at 250 and
# 11-15 at 500 on a 2-core VM. A block's arrays stay a few MB, and every
# path is computed on its own, so width never moves data
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


def location_paths(garch: Garch11Spec, mu: float,
                   scenario: ChangeScenario | None, m: int, length: int,
                   seed: int, start: int = 0, count: int = 1):
    """Location-model series of replications [start, start + count):
    X_i = mu + eps_i, plus delta from global 1-based index m + kstar on
    (stream position kstar; scenario None, or a kstar past length, gives
    a change-free series). Replication r's GARCH(1,1) errors come from
    RNG stream (seed, r).

    Yields the training in ceil(m / CHUNK) pieces of shape (count,
    <= CHUNK), then the monitoring stream in pieces of the same shape,
    m + length values in all. The pieces of each part are cut at
    multiples of CHUNK from its start, so the last piece of the training
    may be short, and np.concatenate(list(...), axis=1) gives the whole
    series, to be split at column m. A piece is drawn only when asked
    for, and the generator keeps none it has handed out. At the first
    piece, raises ValidationError on m < 2, length < 1 or a non-finite mu.

    A caller that needs only some of the paths narrows the rest away: it
    sends the generator the ascending positions, among the rows of the
    piece just yielded, of the paths to go on with, and the pieces from
    then on hold those rows alone, in that order. Each path is drawn and
    stepped as it is in the whole block, so its values keep their bits.
    A plain next(), or a for loop, keeps every row. Raises
    ValidationError naming the replication whose GARCH variance overflows
    in the piece being drawn, or whose value (numbered from 1 in the
    series) overflows to a non-finite number when mu or delta is added.
    """
    _require_count(m, "m", 2)
    _require_count(length, "length", 1)
    _require(math.isfinite(mu), "mu must be finite")
    carry, first = GarchCarry(), 0  # first: 0-based index of a piece's start
    for n in [min(CHUNK, size - k0) for size in (m, length)
              for k0 in range(0, size, CHUNK)]:
        x = generate_garch11_batch(garch, n, count, seed, start, carry)
        try:  # the sums raise on overflow, after filling in every value
            with np.errstate(over="raise"):
                x += mu
                if scenario is not None:
                    x[:, max(m + scenario.kstar - 1 - first, 0):] += \
                        scenario.delta
        except FloatingPointError:
            row, col = divmod(int(np.argmin(np.isfinite(x))), n)
            raise ValidationError(
                f"replication {carry.streams[row]}: value {first + col + 1} "
                "of the series overflows to a non-finite number") from None
        keep = yield x
        del x
        if keep is not None and len(keep) < count:
            carry.keep(keep)
            count = len(keep)
        if garch.burn_in:  # the pieces after the first continue the carry
            garch = replace(garch, burn_in=0)
        first += n


def _block_taus(params: MonitoringParams, garch: Garch11Spec, mu: float,
                seed: int, start: int, count: int, rules, scenario=None):
    """First crossings of each (detector, c) rule on the location_paths
    replications [start, start + count), under scenario or, with None,
    change-free: one int array per rule of each path's 1-based stopping
    time, 0 when the path did not stop or its training sample is
    constant. detectors.first_stops narrows the block as paths settle.
    Raises ValidationError as location_paths and first_stops do."""
    paths = location_paths(garch, mu, scenario, params.m, params.horizon,
                           seed, start, count)
    # the training pieces, one alive at a time; the stream pieces follow
    return first_stops(paths, *_row_summaries(paths, params.m), rules,
                       params, start)


def run_replications(params: MonitoringParams, scenario: ChangeScenario,
                     garch: Garch11Spec, reps: int, c_page: float,
                     c_q: float, seed: int, mu: float = 0.0,
                     threads: int = 1) -> list[ReplicationRecord]:
    """Run both stopping rules over fresh data in each replication.

    Deterministic given seed: replication r always uses RNG stream (seed, r),
    so the result is identical for any thread count or block size.
    scenario.sigma is the sigma of the normalizations a_m and b_m; for these
    errors it is sqrt(garch.unconditional_variance), and it moves no tau.
    """
    _require_count(reps, "reps", 1)
    validate_scenario(scenario, params.m)
    norm_page = compute_normalization(c_page, params.m, scenario, params.gamma)
    norm_q = compute_normalization(c_q, params.m, scenario, params.gamma)
    a_page, b_page = norm_page.a_m, norm_page.b_m
    a_q, b_q = norm_q.a_m, norm_q.b_m
    fn = functools.partial(_block_taus, params, garch, mu, seed,
                           rules=(("page", c_page), ("ordinary", c_q)),
                           scenario=scenario)
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
        # exp(-z*z/2) formed in z's own array: one (chunk, points) array
        # alive, where exp(-0.5 * z * z) made three. Scaling by -0.5 is
        # exact, so the bits are the same
        z = grid[None, :] - chunk[:, None]
        z /= h
        np.square(z, out=z)
        z *= -0.5
        dens += np.exp(z, out=z).sum(axis=0)
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
        lines = [",".join(TABLE1_COLUMNS)] + [
            ",".join([str(row[k]) for k in TABLE1_COLUMNS[:4]]
                     + [f"{row[k]:.6f}" for k in TABLE1_COLUMNS[4:]])
            for row in rows]  # the a and b columns to six decimals
        write_csv_text(out_path, ["\r\n".join(lines)])
    return rows


def write_csv_text(path, texts) -> None:
    """Write each text (rows joined by \\r\\n) and a \\r\\n after it to path:
    csv.writer's bytes for fields that need no quoting, with no write per
    row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for text in texts:
            fh.write(text)
            fh.write("\r\n")


RECORD_COLUMNS = tuple(f.name for f in fields(ReplicationRecord))


def write_records_csv(records, path) -> None:
    """A RECORD_COLUMNS header, then one row per record, None as an empty
    field, written once by write_csv_text: str of each value (a float's
    repr, so parsing restores it)."""
    row = operator.attrgetter(*RECORD_COLUMNS)
    lines = [",".join(RECORD_COLUMNS)]
    lines += [",".join(["" if v is None else str(v) for v in row(r)])
              for r in records]
    write_csv_text(path, ["\r\n".join(lines)])


def read_records_csv(path) -> list[ReplicationRecord]:
    """Records of a write_records_csv file; an empty field reads as None.
    Raises ValidationError naming the row (1 is the first after the header)
    and column of a field that does not parse, or of a non-finite nu."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header, rows = next(reader, None), list(reader)
    _require(header == list(RECORD_COLUMNS),
             f"unexpected records header: {header}")
    _require(all(len(row) == len(header) for row in rows),
             "every records row needs one field per column")

    def parse(i, name, v):
        kind = float if name.startswith("nu_") else int
        try:
            x = kind(v) if v else None
            if kind is int or x is None or math.isfinite(x):
                return x
            what = "finite"
        except ValueError:
            what = "a number" if kind is float else "an integer"
        raise ValidationError(
            f"records row {i}, column {name}: {v!r} is not {what}")

    return [ReplicationRecord(*(parse(i, name, v)
                                for name, v in zip(header, row)))
            for i, row in enumerate(rows, start=1)]


def write_density_csv(est: DensityEstimate, path) -> None:
    """An x,density header, then one row per grid point with the repr of
    each float, written once by write_csv_text."""
    lines = ["x,density"]
    lines += [f"{x!r},{d!r}"
              for x, d in zip(est.grid.tolist(), est.density.tolist())]
    write_csv_text(path, ["\r\n".join(lines)])


_DENSITY_FILES = {"nu_page": "density_page.csv", "nu_q": "density_q.csv",
                  "nu_tilde": "density_tilde.csv"}
# the files simulate_to_dir writes in its directory; density writes, or
# removes, the density files alone
DENSITY_FILES = tuple(_DENSITY_FILES.values())
STUDY_FILES = ("records.csv", "meta.json") + DENSITY_FILES


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
